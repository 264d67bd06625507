"""The verdicts of verify_solution over the grid lattice, pinned by cause.

VERDICTS lists the 100 draws of
test_continuity.py::test_solve_and_verify_fail_only_with_library_errors, in
its order: (model, n, t0, t_min, t_max, intervals, expected), h = (t_max -
t_min) / intervals.  expected is the error a draw raises building its forcing
or solving, or the checks verify_solution fails, each mapped to its cause.
Each cause names the ROADMAP.md item that mends it; the PR that mends an item
removes its entries, and no other edit to the table is allowed.
"""

import warnings

import acylsoliton as ak

MA, DECAY = "monge_ampere_residual_sup", "decay_rate_transfer"
MIN_R, MAX_R = "min_metric_ratio_along_path", "max_metric_ratio_along_path"
DRIFT = "inf_drift_potential"

# Item 3: the end-node equation is no row of the solver, and a one-sided stencil
# reads its O(h^2) truncation (node 0; t_max for the glued t0 = 3 rows).  On the
# manufactured rows item 5 would clear it too: F is phi*'s own discrete residual.
END_NODE = "item 3, end node"
# Item 3: decay_rate_fit's window is 60-90% of the domain, so it turns on t_max.
WINDOW = "item 3, decay window"
# Item 5: the manufactured potential meets neither boundary row.  The cylinder's
# f = 2t + kappa is below 1 for t < 0, and on the coarsest grid the mismatch
# excites the march's slowly decaying discrete mode.
BOUNDARY = "item 5, boundary data"
# Item 13: the Neumann row asks phi''(t_min) = 2a (e^F - 1), a layer the step
# cannot resolve: h 2a(t_min) (e^{F(t_min)} - 1) > 0.1 on these rows (0.1 to
# 7e5), at most 6e-4 on every other glued row.
INNER_END = "item 13, inner end"
# Not a grid artefact: t0 = 1.3 has F = 15.82 at the inner end, so the metric
# ratio there is e^F = 7.4e6 against the bound 1e6.
E_F = "t0 = 1.3, metric ratio e^F"


VERDICTS = [
    ("cigar", 1, None, -12.0, 6.0, 4, ak.DomainError),
    ("glued", 1, 1.3, -12.0, 6.0, 4, ak.DomainError),
    ("glued", 1, 1.3, -12.0, 12.0, 904, {MA: END_NODE, MAX_R: E_F}),
    ("cigar", 3, None, -12.0, 6.0, 4, ak.DomainError),
    ("cigar", 3, None, -12.0, 12.0, 527, {}),
    ("cylinder", 1, None, -12.0, 6.0, 4, ak.DomainError),
    ("cylinder", 2, None, -6.0, 12.0, 378, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 1, None, -12.0, 6.0, 4, ak.DomainError),
    ("cylinder", 1, None, -12.0, 8.0, 249, {MA: END_NODE, DECAY: WINDOW, DRIFT: BOUNDARY}),
    ("cigar", 2, None, -12.0, 6.0, 4, ak.DomainError),
    ("cigar", 2, None, 0.0, 20.0, 39, {MA: END_NODE}),
    ("cylinder", 1, None, -3.0, 30.0, 719, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 2, None, 0.0, 30.0, 165, {MA: END_NODE}),
    ("glued", 2, 4.5, 0.0, 6.0, 368, {}),
    ("cylinder", 2, None, -3.0, 8.0, 763, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 2, None, -3.0, 6.0, 320, {MA: END_NODE}),
    ("cylinder", 3, None, -3.0, 12.0, 366, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 3, None, -12.0, 12.0, 395, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 2, None, 0.0, 8.0, 55, {MA: END_NODE}),
    ("cigar", 2, None, 0.0, 30.0, 159, {MA: END_NODE}),
    ("cylinder", 2, None, 0.0, 30.0, 248, {MA: END_NODE}),
    ("glued", 1, 3.0, -6.0, 6.0, 72, {MA: END_NODE}),
    ("cylinder", 2, None, 0.0, 20.0, 265, {MA: END_NODE}),
    ("cigar", 3, None, -6.0, 20.0, 253, {MA: END_NODE}),
    ("cigar", 3, None, -3.0, 20.0, 130, {MA: END_NODE}),
    ("glued", 3, 1.5, -6.0, 12.0, 223, {MA: END_NODE}),
    ("cigar", 1, None, 0.0, 12.0, 518, {MA: END_NODE}),
    ("cigar", 1, None, -6.0, 20.0, 636, {MA: END_NODE}),
    ("cigar", 1, None, -6.0, 20.0, 446, {MA: END_NODE}),
    ("cigar", 2, None, -6.0, 6.0, 262, {MA: END_NODE}),
    ("glued", 1, 1.3, 0.0, 8.0, 86, {MA: INNER_END}),
    ("cylinder", 2, None, -12.0, 6.0, 976, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 3, None, -6.0, 8.0, 446, {MA: END_NODE}),
    ("cigar", 3, None, -12.0, 6.0, 609, {DECAY: WINDOW}),
    ("cylinder", 1, None, -3.0, 12.0, 88, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("glued", 2, 3.0, -12.0, 6.0, 546, {MA: END_NODE}),
    ("glued", 3, 1.3, -6.0, 30.0, 926, {MA: INNER_END, MAX_R: E_F}),
    ("cylinder", 3, None, -12.0, 12.0, 535, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("glued", 2, 4.5, -3.0, 12.0, 148, {}),
    ("cylinder", 1, None, 0.0, 30.0, 283, {MA: END_NODE}),
    ("cylinder", 1, None, -12.0, 12.0, 58, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("glued", 1, 4.5, -12.0, 20.0, 217, {}),
    ("cylinder", 2, None, -12.0, 30.0, 299, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 2, None, -3.0, 8.0, 162, {MA: END_NODE}),
    ("glued", 1, 1.3, -6.0, 20.0, 50, {MA: INNER_END}),
    ("glued", 1, 3.0, 0.0, 12.0, 125, {}),
    ("cigar", 3, None, -3.0, 12.0, 19, ak.PositivityLost),
    ("cylinder", 2, None, -12.0, 30.0, 10, {MA: END_NODE, DECAY: BOUNDARY, DRIFT: BOUNDARY}),
    ("glued", 2, 4.5, -12.0, 30.0, 294, {}),
    ("cylinder", 2, None, 0.0, 8.0, 418, {MA: END_NODE}),
    ("glued", 1, 1.5, 0.0, 30.0, 533, {MA: INNER_END}),
    ("cylinder", 2, None, -12.0, 6.0, 152, {MA: END_NODE, DECAY: WINDOW, DRIFT: BOUNDARY}),
    ("cylinder", 1, None, 0.0, 6.0, 944, {MA: END_NODE}),
    ("cigar", 3, None, -12.0, 6.0, 291, {DECAY: WINDOW}),
    ("cylinder", 2, None, 0.0, 12.0, 87, {MA: END_NODE}),
    ("glued", 1, 1.5, -3.0, 30.0, 783, {MA: INNER_END}),
    ("glued", 3, 3.0, -12.0, 8.0, 93, {MA: END_NODE}),
    ("glued", 3, 4.5, -3.0, 12.0, 344, {}),
    ("glued", 1, 2.0, 0.0, 20.0, 407, {MA: INNER_END}),
    ("cylinder", 2, None, -6.0, 8.0, 210, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 3, None, -12.0, 20.0, 378, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 1, None, -3.0, 8.0, 218, {MA: END_NODE}),
    ("cylinder", 3, None, -6.0, 12.0, 27, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 2, None, -6.0, 30.0, 79, {MA: END_NODE}),
    ("glued", 3, 4.5, 0.0, 8.0, 127, {}),
    ("cigar", 2, None, 0.0, 20.0, 30, {MA: END_NODE}),
    ("cigar", 1, None, 0.0, 30.0, 31, {MA: END_NODE}),
    ("cylinder", 2, None, 0.0, 30.0, 134, {MA: END_NODE}),
    ("glued", 1, 1.3, -6.0, 30.0, 4, ak.DomainError),
    ("cylinder", 1, None, 0.0, 20.0, 318, {MA: END_NODE}),
    ("cigar", 1, None, -12.0, 6.0, 303, {DECAY: WINDOW}),
    ("glued", 2, 1.5, -3.0, 30.0, 211, {MA: INNER_END}),
    ("cylinder", 1, None, 0.0, 12.0, 368, {MA: END_NODE}),
    ("cylinder", 1, None, -6.0, 30.0, 709, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 3, None, -12.0, 30.0, 434, {}),
    ("glued", 3, 2.0, -6.0, 20.0, 297, {MA: END_NODE}),
    ("cylinder", 2, None, 0.0, 6.0, 593, {MA: END_NODE}),
    ("glued", 2, 4.5, -12.0, 20.0, 151, {}),
    ("glued", 1, 1.3, -3.0, 6.0, 945, {MA: INNER_END}),
    ("cylinder", 1, None, -6.0, 30.0, 138, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 2, None, -12.0, 20.0, 118, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 2, None, -3.0, 20.0, 574, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 1, None, 0.0, 12.0, 65, {MA: END_NODE}),
    ("glued", 3, 1.3, -12.0, 20.0, 346, {MA: END_NODE, MAX_R: E_F}),
    ("cylinder", 3, None, 0.0, 8.0, 469, {MA: END_NODE}),
    ("cylinder", 3, None, 0.0, 20.0, 254, {MA: END_NODE}),
    ("glued", 2, 2.0, -12.0, 20.0, 67, {MA: END_NODE}),
    ("cigar", 2, None, -12.0, 30.0, 46, {}),
    ("cigar", 1, None, 0.0, 12.0, 691, {MA: END_NODE}),
    ("cylinder", 3, None, -3.0, 30.0, 321, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("glued", 3, 2.0, -12.0, 12.0, 590, {MA: END_NODE}),
    ("glued", 2, 1.3, -6.0, 12.0, 216, {MA: INNER_END, MAX_R: E_F}),
    ("cigar", 2, None, 0.0, 12.0, 328, {MA: END_NODE}),
    ("cylinder", 2, None, -6.0, 30.0, 412, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cigar", 1, None, -3.0, 30.0, 241, {MA: END_NODE}),
    ("glued", 3, 3.0, -3.0, 6.0, 359, {MA: END_NODE}),
    ("cylinder", 2, None, -12.0, 6.0, 584, {MA: END_NODE, DRIFT: BOUNDARY}),
    ("cylinder", 2, None, 0.0, 20.0, 61, {MA: END_NODE}),
    ("cigar", 2, None, -6.0, 8.0, 697, {}),
    ("cigar", 3, None, -3.0, 8.0, 102, {MA: END_NODE}),
]


def _problem(kind, n, t0, grid):
    """The model and forcing of a draw, as the lattice sweep builds them."""
    if kind == "glued":
        model = ak.glued_model(ak.cigar_model(n), ak.GlueSpec(t0=t0))
        return model, ak.glued_forcing(model, grid)
    model = ak.cigar_model(n) if kind == "cigar" else ak.cylinder_model(n)
    return model, ak.ma_residual_radial(model, ak.manufactured_potential(grid), None, 0.0)


def test_lattice_verdicts_are_the_table():
    """Each draw raises the error its row names or fails exactly the checks it
    names; no check fails outside the table."""
    wrong = []
    for kind, n, t0, t_min, t_max, intervals, expected in VERDICTS:
        grid = (t_min, t_max, (t_max - t_min) / intervals)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "forcing decay rate", UserWarning)
                model, forcing = _problem(kind, n, t0, grid)
                report = ak.verify_solution(model, ak.continuity_solve(model, forcing), forcing)
            got = {c.name for c in report.checks if not c.passed}
        except ak.AcylSolitonError as exc:
            got = type(exc)
        if got != (set(expected) if isinstance(expected, dict) else expected):
            wrong.append((kind, n, t0, grid, got))
    assert len(VERDICTS) == 100 and wrong == []
