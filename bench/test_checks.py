"""The benchmark's output checks accept dbarkit's outputs and reject
perturbed ones.

    python3 -m pytest -q bench/test_checks.py

One round of each workload runs once (about 30 s in all); every test then
perturbs one output slightly and asserts that its check reports it.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def api():
    return run.make_api(run.import_dbarkit())


@pytest.fixture(scope="module")
def rounds(api, tmp_path_factory):
    """workload -> list of (op, output) from one untraced round."""
    out = {}
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, SEED, api, workloads.Tally())
        rd = workloads.Round(api, tmp_path_factory.mktemp(name))
        out[name] = [(op, op.run(rd)) for op in ops]
    return out


def pick(rounds, workload, prefix):
    for op, output in rounds[workload]:
        if op.name.startswith(prefix):
            return op, output
    raise KeyError(prefix)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_unperturbed_outputs_pass(rounds, workload):
    fails = [f"{op.name}: {msg}" for op, out in rounds[workload]
             for msg in op.check(out)]
    assert fails == []


# -- spectrum CSV -------------------------------------------------------------


def _edit_csv(out, tmp_path, row, col, fn):
    """Copy of a CLI output with cell (row, col) of the table replaced."""
    lines = out.path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    path = tmp_path / out.path.name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return workloads.CliOutput(out.rc, path)


def _scale(factor):
    return lambda cell: f"{float(cell) * factor:.17g}"


@pytest.mark.parametrize("spec,row", [
    ("spectrum fock:m=3", 54321),   # between the mpmath samples
    ("spectrum fock:m=2", 77777),
    ("spectrum disc:alpha=1", 10),
])
def test_spectrum_rejects_eigenvalue_off_by_1e9(rounds, tmp_path, spec, row):
    op, out = pick(rounds, "spectrum-large", spec)
    assert op.check(_edit_csv(out, tmp_path, row, 1, _scale(1 + 1e-9)))


@pytest.mark.parametrize("col", [2, 3])
def test_spectrum_rejects_partial_sum_or_ratio_off(rounds, tmp_path, col):
    op, out = pick(rounds, "spectrum-large", "spectrum fock:m=3")
    assert op.check(_edit_csv(out, tmp_path, 4321, col, _scale(1 + 1e-9)))


def test_spectrum_rejects_wrong_verdict(rounds, tmp_path):
    op, out = pick(rounds, "spectrum-large", "spectrum fock:m=3")
    text = out.path.read_text(encoding="utf-8").replace(
        "CompactNotHilbertSchmidt", "HilbertSchmidt")
    path = tmp_path / "verdict.csv"
    path.write_text(text, encoding="utf-8")
    assert op.check(workloads.CliOutput(0, path))


def test_spectrum_rejects_failed_exit(rounds):
    op, out = pick(rounds, "spectrum-large", "spectrum disc")
    assert op.check(workloads.CliOutput(1, out.path))


# -- everything else: perturb a copy of the output in place ------------------------


def _mul(key, factor, index=None):
    def mutate(out):
        if index is None:
            out[key] *= factor
        else:
            seq = list(out[key])
            seq[index] *= factor
            out[key] = type(out[key])(seq) if not isinstance(out[key], np.ndarray) \
                else np.asarray(seq)
        return out
    return mutate


def _set(key, value):
    def mutate(out):
        out[key] = value
        return out
    return mutate


def _flip_check(name):
    def mutate(out):
        passed, detail = out[name]
        out[name] = (not passed, detail)
        return out
    return mutate


def _replace_detail(name, old, new):
    def mutate(out):
        passed, detail = out[name]
        out[name] = (passed, detail.replace(old, new))
        return out
    return mutate


def _shift_item(index, delta):
    def mutate(out):
        out[index] += delta
        return out
    return mutate


def _scale_item(index, factor):
    def mutate(out):
        out[index] *= factor
        return out
    return mutate


def _grid_entry(out):
    out = out.copy()
    out[123, 45] *= 1 + 1e-9
    out[45, 123] = out[123, 45]
    return out


def _grid_asymmetric(out):
    out = out.copy()
    out[7, 3] = np.nextafter(out[7, 3], 0.0)
    return out


def _form(index, which):
    def mutate(out):
        pair = list(out[index])
        pair[which] *= 1 + 1e-9
        out[index] = tuple(pair)
        return out
    return mutate


PERTURBATIONS = [
    # custom-quadrature
    ("custom-quadrature", "classify", _set("verdict", "CompactNotHilbertSchmidt")),
    ("custom-quadrature", "classify", _mul("log_moments", 1 + 1e-8, index=1500)),
    ("custom-quadrature", "classify", _mul("lambda_tail_max", 1 + 1e-2)),
    ("custom-quadrature", "classify", _mul("ratio_tail", 1 + 1e-8)),
    ("custom-quadrature", "ensure", lambda out: out * (1 + 1e-9) + 1e-8),
    ("custom-quadrature", "divergent", lambda out: {"raised": None, "value": 1.0}),
    ("custom-quadrature", "divergent", _set("order", 1)),
    ("custom-quadrature", "moment_quadrature n=37", _shift_item(3, 1e-8)),
    # solver-kernel
    ("solver-kernel", "solver pipeline fock:2", _mul("norm_sq", 1 + 1e-9)),
    ("solver-kernel", "solver pipeline fock:2", _mul("defect_1", 1 + 1e-9)),
    ("solver-kernel", "solver pipeline disc:1", _mul("defect_rho", 1 + 1e-9)),
    ("solver-kernel", "solver pipeline fock:4", _mul("holo", 1 + 1e-9, index=50)),
    ("solver-kernel", "solver pipeline fock:4", _mul("conj", 1 + 1e-12, index=3)),
    ("solver-kernel", "solver pipeline disc:0", _mul("bound", 1 + 1e-9)),
    ("solver-kernel", "solver pipeline disc:0",
     lambda out: {**out, "inner": [1e-6 * (1 + abs(out["norm_sq"]))] * len(out["inner"])}),
    ("solver-kernel", "solver pipeline fock:4", _mul("dbar_residual", 1e6)),
    ("solver-kernel", "kernel_eval fock:2", lambda out: out * (1 + 1e-8)),
    ("solver-kernel", "kernel_eval disc:1", lambda out: out * (1 + 1e-8)),
    ("solver-kernel", "defect_norm_quadrature fock:4", lambda out: out * (1 + 1e-7)),
    ("solver-kernel", "reproduce_check disc:0", lambda out: out + 1e-3),
    # several-variables
    ("several-variables", "ball grid", _grid_entry),
    ("several-variables", "ball grid", _grid_asymmetric),
    ("several-variables", "ball hs partial sum", lambda out: out * (1 + 1e-9)),
    ("several-variables", "ball form energies", _form(17, 0)),
    ("several-variables", "ball form energies", _form(33, 1)),
    ("several-variables", "ball kernel series", _scale_item(3, 1 + 1e-8)),
    ("several-variables", "ball moment quadrature", lambda out: out + 1e-8),
    ("several-variables", "hypotheses |z| dim 1", _flip_check("superlinear_growth")),
    ("several-variables", "hypotheses |z|^2 dim 2", _flip_check("integrability")),
    ("several-variables", "hypotheses |z|^2 dim 1",
     _replace_detail("integrability", "3.14159", "3.14259")),
    ("several-variables", "hypotheses |z|^2 dim 2",
     _replace_detail("conjugate_finite", "0.0625", "0.0645")),
    ("several-variables", "conjugate_transform", _shift_item(2, 1e-2)),
    ("several-variables", "sup_shift", _shift_item(1, -1e-3)),
]


@pytest.mark.parametrize("workload,prefix,mutate", PERTURBATIONS,
                         ids=[f"{w}:{p}:{i}" for i, (w, p, _) in enumerate(PERTURBATIONS)])
def test_check_rejects_perturbed_output(rounds, workload, prefix, mutate):
    op, out = pick(rounds, workload, prefix)
    perturbed = mutate(copy.deepcopy(out))
    assert op.check(perturbed), f"{op.name} accepted a perturbed output"
