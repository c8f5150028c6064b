"""A catalogue of mutants: small wrong edits that named tests must catch.

Each entry replaces one exact text, which occurs once in its file, by a
wrong one, and names the tests that must then fail. Several mutants keep
the forward and the backward consistent, so the gradient checks cannot see
them; they guard what those checks do not.

    python3 ci/mutants.py

copies the tree into a fresh temporary directory for each mutant, applies
it there, runs only its named tests with one BLAS thread, one mutant at a
time, and writes `mutants.json` at the repository root: per mutant, which
named tests failed, whether all of them did ("caught") and the seconds. It
exits 1 if a mutant survived. A surviving mutant is a finding to report; it
stays in the catalogue. An entry whose old text is not found once, or whose
tests pytest cannot run (an exit other than 0 or 1, such as a renamed test),
is stale: the run stops and names it. tests/test_mutants.py checks that each
old text occurs exactly once and each named test is defined.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str       # relative to the repository root
    old: str        # occurs exactly once in `file`
    new: str
    tests: tuple[str, ...]  # pytest node ids; every one must fail
    why: str


MUTANTS = (
    Mutant("bootstrap-alpha", "src/trajsurv/metrics.py",
           "    alpha = (1.0 - level) / 2.0\n",
           "    alpha = 1.0 - level\n",
           ("tests/test_metrics.py::TestBootstrap::test_draws_are_pinned",),
           "a 95% bootstrap interval that is really a 90% one"),
    Mutant("labels-swapped", "src/trajsurv/training.py",
           '    os_nll, os_kept = discrete_nll(logits["os"], cohort.time["os"], '
           'cohort.event["os"], bins,\n                                   keep)\n'
           '    dfs_nll, dfs_kept = discrete_nll(logits["dfs"], cohort.time["dfs"], '
           'cohort.event["dfs"],\n',
           '    os_nll, os_kept = discrete_nll(logits["os"], cohort.time["dfs"], '
           'cohort.event["dfs"], bins,\n                                   keep)\n'
           '    dfs_nll, dfs_kept = discrete_nll(logits["dfs"], cohort.time["os"], '
           'cohort.event["os"],\n',
           ("tests/test_objective.py::TestCombinedLoss::test_os_only",
            "tests/test_objective.py::TestCombinedLoss::test_equal_weights",
            "tests/test_objective.py::TestCombinedLoss::test_weighted"),
           "each head trained on the other task's labels; the backward follows the same masks"),
    Mutant("censored-bin-not-survived", "src/trajsurv/objective.py",
           "    surv_mask = (cols < k + 1 - event).astype(np.float64)\n",
           "    surv_mask = (cols < k).astype(np.float64)\n",
           ("tests/test_training.py::test_featureless_patients_learn_the_life_table",),
           "a patient censored in bin k counted as not surviving it, in loss and gradient"),
    Mutant("child-flushes-stdout", "src/trajsurv/metrics.py",
           "    finally:\n        os._exit(code)\n",
           "    finally:\n        __import__('sys').stdout.flush()\n        os._exit(code)\n",
           ("tests/test_metrics.py::TestForkedDraws::test_a_child_flushes_no_inherited_output",),
           "a forked bootstrap worker prints the parent's buffered output a second time"),
    Mutant("merge-key-bit", "src/trajsurv/metrics.py",
           "        total -= int(((keys & 3) == 0) @ index)\n",
           "        total -= int(((keys & 1) == 0) @ index)\n",
           ("tests/test_metrics.py::test_later_smaller_counts_equal_the_argsort_merge",),
           "the C-index merge counts the left half's queried ranks by the wrong bit"),
    Mutant("graphsage-no-neighbours", "src/trajsurv/evolution.py",
           '    return {"mean": Blocks(adj / deg),\n',
           '    return {"mean": Blocks(0.0 * adj / deg),\n',
           ("tests/test_evolution.py::TestResidualStep::test_graphsage_single_neighbor_hand_case",
            "tests/test_evolution.py::test_step_matches_concat_then_propagate_oracle[graphsage]"),
           "graphsage's neighbour mean is zero in forward and backward alike"),
    Mutant("restore-skipped", "src/trajsurv/training.py",
           "    restore_parameters(model, best)\n",
           "    pass\n",
           ("tests/test_training.py::TestTrainModel::test_best_snapshot_restored",),
           "training ends on the last epoch's parameters, not the best epoch's"),
    Mutant("adamw-no-bias-correction", "src/trajsurv/objective.py",
           "    update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)\n",
           "    update = m / (np.sqrt(v) + ADAM_EPS)\n",
           ("tests/test_objective.py::TestAdamW::test_first_step_hand_example",),
           "Adam's first steps shrunk by the uncorrected moments"),
    Mutant("horizon-defaults-to-1", "src/trajsurv/model.py",
           "    horizon: int = 12             # T\n",
           "    horizon: int = 1              # T\n",
           ("tests/test_config.py::TestDefaults::test_empty_document_yields_defaults",),
           "a static model by default; only the literal defaults test sees it"),
)


def _failed(output: str) -> set[str]:
    return {line.split()[1] for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant, work: Path) -> dict:
    """Apply `mutant` in a copy of the tree under `work` and run its tests."""
    tree = work / mutant.name
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".perfbench", "mutants.json"))
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}, so the entry is "
                         f"stale:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failed = _failed(proc.stdout)
    caught = all(any(f == t or f.startswith(t + "::") or f.startswith(t + "[")
                     for f in failed) for t in mutant.tests)
    shutil.rmtree(tree)
    return {"name": mutant.name, "caught": caught, "failed": sorted(failed),
            "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        results = []
        for mutant in MUTANTS:
            results.append(run(mutant, Path(work)))
            print(f"{mutant.name}: {'caught' if results[-1]['caught'] else 'SURVIVED'} "
                  f"({results[-1]['seconds']} s)", flush=True)
    (ROOT / "mutants.json").write_text(json.dumps(results, indent=2) + "\n")
    return 0 if all(r["caught"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
