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
old text occurs exactly once and each named test is defined. CI runs the
catalogue in the `mutants` job of .github/workflows/tier1.yml.
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
           'cohort.event["os"], bins)\n'
           '    dfs_nll, dfs_kept = discrete_nll(logits["dfs"], cohort.time["dfs"], '
           'cohort.event["dfs"],\n',
           '    os_nll, os_kept = discrete_nll(logits["os"], cohort.time["dfs"], '
           'cohort.event["dfs"], bins)\n'
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
           "    model.theta[...] = best\n",
           "    pass\n",
           ("tests/test_training.py::TestTrainModel::test_best_snapshot_restored",),
           "training ends on the last epoch's parameters, not the best epoch's"),
    Mutant("adamw-no-bias-correction", "src/trajsurv/objective.py",
           "    np.divide(m, bc1, out=update)\n"
           "    np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)\n",
           "    np.copyto(update, m)\n    np.sqrt(v, out=scratch)\n",
           ("tests/test_objective.py::TestAdamW::test_first_step_hand_example",),
           "Adam's first steps shrunk by the uncorrected moments"),
    Mutant("horizon-defaults-to-1", "src/trajsurv/model.py",
           "    horizon: int = 12             # T\n",
           "    horizon: int = 1              # T\n",
           ("tests/test_config.py::TestDefaults::test_empty_document_yields_defaults",),
           "a static model by default; only the literal defaults test sees it"),
    Mutant("workspace-slot-shared", "src/trajsurv/trajectory.py",
           '    tanh_c = slot(out, "lstm.tanh_c", (steps, rows, d_h))\n',
           '    tanh_c = slot(out, "lstm.cells", (steps, rows, d_h))\n',
           ("tests/test_loss_and_grads.py::test_reused_workspace_gives_fresh_bits",),
           "tanh(c) overwrites the kept cells before the LSTM backward reads them"),
    Mutant("workspace-never-grows", "src/trajsurv/autodiff.py",
           "    if buffer is None or buffer.size < size:\n",
           "    if buffer is None:\n",
           ("tests/test_loss_and_grads.py::test_reused_workspace_gives_fresh_bits",),
           "a buffer sized for one batch is reused for a larger one"),
    Mutant("cascade-context-leaks", "src/trajsurv/model.py",
           "                       config.context_dim if config.cascade else None, "
           "config.num_bins, rng)\n",
           "                       config.context_dim, config.num_bins, rng)\n",
           ("tests/test_loss_and_grads.py::test_cascade_check_is_the_os_term_alone[False]",),
           "a model built with the cascade off still has the context weights, and its "
           "mortality head reads the context"),
    Mutant("mean-builds-lstm", "src/trajsurv/model.py",
           "    lstm = (init_lstm(config.hidden_dim, config.summary_dim, rng)\n"
           "            if config.integrator == \"lstm\" else None)\n",
           "    lstm = init_lstm(config.hidden_dim, config.summary_dim, rng)\n",
           ("tests/test_loss_and_grads.py::test_loss_and_gradients_are_the_tape_bits"
            "[graphsage-mean-True-40]",
            "tests/test_loss_and_grads.py::test_loss_and_gradients_off_the_default_widths"
            "[mean-gcn]",
            "tests/test_training.py::test_each_config_holds_only_its_stages[mean-True]"),
           "a model built for the mean integrator has an LSTM, and its forward runs it"),
    Mutant("lstm-gate-names-swapped", "src/trajsurv/trajectory.py",
           'GATES = ("i", "f", "o", "g")',
           'GATES = ("i", "f", "g", "o")',
           ("tests/test_trajectory.py::"
            "test_a_model_file_written_before_the_stacked_gates_gives_its_curves",),
           "a model file's lstm.w_g and lstm.w_o are read into each other's gate slices; "
           "forward, backward and training agree with each other"),
    Mutant("heads-outside-theta", "src/trajsurv/model.py",
           "        self.embedding, self.evolution, self.lstm, self.heads = "
           "self.stage_views(self.theta)\n",
           "        self.embedding, self.evolution, self.lstm, _ = self.stage_views(self.theta)\n",
           ("tests/test_training.py::"
            "test_every_parameter_is_a_view_of_theta_and_one_step_moves_it",),
           "the heads keep their own arrays, so AdamW, the snapshot and the restore act on "
           "a copy of them in theta that the forward never reads"),
    Mutant("config-recursion-uncaught", "src/trajsurv/config.py",
           "    except (OSError, ValueError, RecursionError) as exc:\n",
           "    except (OSError, ValueError) as exc:\n",
           ("tests/test_malformed_files.py::test_a_config_nested_too_deep_exits_1",),
           "a config file nested too deep ends in a traceback, not exit 1"),
    Mutant("grad-not-zeroed", "src/trajsurv/model.py",
           "        self.grad[...] = 0.0\n",
           "",
           ("tests/test_loss_and_grads.py::test_reused_workspace_gives_fresh_bits",),
           "each backward adds the evolution's gradients to the previous step's"),
    Mutant("cohort-width-unbounded", "src/trajsurv/cohort.py",
           "        _require(width <= MAX_FEATURE_WIDTH,\n",
           "        _require(True,\n",
           ("tests/test_malformed_files.py::"
            "test_a_huge_feature_width_exits_2_before_anything_is_allocated",),
           "a cohort header's region_len sizes the regions array before any data bounds it"),
    Mutant("curves-moved-1e-10", "src/trajsurv/model.py",
           "            curves[task] = (h, survival_from_hazards(h))\n",
           "            curves[task] = (h + 1e-10, survival_from_hazards(h))\n",
           ("tests/test_trajectory.py::"
            "test_a_model_file_written_before_the_stacked_gates_gives_its_curves",),
           "every hazard moved by 1e-10: the model-file fixture's tolerance must see it"),
    Mutant("simulate-checks-skipped", "src/trajsurv/config.py",
           "            super().__post_init__()\n",
           "            pass\n",
           ("tests/test_config.py::TestValidation::test_simulate_scenario_errors_surface",
            "tests/test_config.py::TestValidation::"
            "test_bad_value_built_in_python_raises[SimulateSettings-kwargs14-^simulate]",
            "tests/test_config.py::TestValidation::"
            "test_bad_value_built_in_python_raises[SimulateSettings-kwargs16-^simulate]",
            "tests/test_config.py::TestValidation::"
            "test_bad_value_built_in_python_raises[SimulateSettings-kwargs17-^simulate]"),
           "the simulate section skips Scenario's own checks, so a censoring rate of 1.5 "
           "or a base hazard of 1 reaches the simulator"),
    Mutant("model-mismatch-list-unbounded", "src/trajsurv/model.py",
           "                for k in wrong[:MAX_LISTED]) + more)\n",
           "                for k in wrong) + more)\n",
           ("tests/test_malformed_files.py::"
            "test_a_model_file_with_2000_extra_members_exits_2_with_one_short_line",),
           "a model file with thousands of stray members gives an error line that lists "
           "every one"),
    Mutant("workspace-shared", "src/trajsurv/model.py",
           "    def __post_init__(self):\n        self.workspace = {}\n",
           "    def __post_init__(self, workspace={}):\n        self.workspace = workspace\n",
           ("tests/test_training.py::test_each_model_has_its_own_empty_workspace",),
           "every model, a copy too, shares one workspace through a mutable default, so one "
           "model's forward overwrites the buffers another's backward reads"),
    Mutant("simulate-seed-unchecked", "src/trajsurv/config.py",
           '            (self.seed is None or self.seed >= 0, "simulate.seed must be >= 0"),\n',
           '            (True, "simulate.seed must be >= 0"),\n',
           ("tests/test_config.py::TestValidation::test_bad_value_built_in_python_raises"
            "[SimulateSettings-kwargs13-^simulate.seed must be >= 0]",),
           "a negative simulate.seed reaches the simulator's seed sequence; the test's id "
           "holds spaces"),
    Mutant("region-keys-reordered", "src/trajsurv/cohort.py",
           '    "liver": NodeKind.LIVER_PARENCHYMA,\n'
           '    "remnant": NodeKind.FUTURE_LIVER_REMNANT,\n',
           '    "remnant": NodeKind.FUTURE_LIVER_REMNANT,\n'
           '    "liver": NodeKind.LIVER_PARENCHYMA,\n',
           ("tests/test_cohort.py::TestCohortFile::"
            "test_region_keys_name_the_node_kinds_in_slot_order",),
           "a cohort file's liver features fill the remnant's slot and feed its embedding "
           "weights; a model saved before the swap reads them in the wrong slot, with no error"),
    Mutant("gradcheck-reads-options", "src/trajsurv/cli.py",
           '    sub.add_parser("gradcheck", help="finite-difference check of the full pipeline")\n',
           '    common(sub.add_parser("gradcheck", help="finite-difference check of the full '
           'pipeline"))\n',
           ("tests/test_cli.py::test_gradcheck_takes_no_options",),
           "gradcheck accepts --config, --seed and --out, then runs its fixed check and "
           "exits 0 whatever they name"),
    Mutant("evolve-one-step-short", "src/trajsurv/evolution.py",
           "    for t in range(steps):\n",
           "    for t in range(steps - 1):\n",
           ("tests/test_evolution.py::TestEvolve::test_collect_states_includes_initial",
            "tests/test_evolution.py::test_evolve_primitive_matches_the_per_op_tape"),
           "the evolution runs one step fewer than its time table has rows, and its last "
           "snapshot is whatever its buffer held"),
)


def _failed(output: str) -> set[str]:
    """The node ids of the `FAILED <node id>[ - <error>]` lines of pytest's
    `-rf` summary; a parametrized id may hold spaces."""
    return {line.removeprefix("FAILED ").split(" - ")[0] for line in output.splitlines()
            if line.startswith("FAILED ")}


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
