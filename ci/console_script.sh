#!/usr/bin/env bash
# End-to-end checks of the `trajsurv` console script, run in the current
# directory: simulate and its byte-identical rerun, simulate with all nine
# `simulate` keys set and the scenario and seed it records, the exit codes
# of a bad --out, of a base hazard too small for integer event times, of an
# output file that is a directory, of no command and of a diverging run,
# the gradient check and its refusal of an option, byte-identical reruns
# of a tiny gat crossval and its pooled C-index intervals, `ablate
# --variant no_cascade` against `crossval` with `cascade: false`, a trained
# model file read back by evaluate, twice with the same bytes, a graphsage
# train with a partial last batch run twice to the same model.npz bytes,
# the same evaluate check for a model with `integrator: mean` and no
# cascade, and the refusal of a model file whose metadata names an
# ablation its arrays do not match.
# Usage:
# bash ci/console_script.sh (with `trajsurv` on PATH).
set -eu

echo '{"simulate": {"n": 10, "region_len": 2, "clinical_len": 2}}' > tiny.json
trajsurv simulate --config tiny.json --out sim
test -s sim/cohort.json && test -s sim/truth.json
trajsurv simulate --config tiny.json --out sim_again
for name in cohort.json truth.json; do cmp "sim/$name" "sim_again/$name"; done
# All nine `simulate` keys off their defaults: truth.json records the seven
# scenario values and the configured seed, and the cohort has n patients.
echo '{"simulate": {"n": 12, "seed": 11, "signal_strength": 0.5, "censoring_rate": 0.1,
       "hazard_ratio": 2.0, "base_os_hazard": 0.2, "base_dfs_hazard": 0.4,
       "region_len": 3, "clinical_len": 4}}' > nine.json
trajsurv simulate --config nine.json --out nine
python3 - nine/truth.json <<'PY'
import json, sys
truth = json.load(open(sys.argv[1]))
assert truth["seed"] == 11, truth["seed"]
assert len(truth["groups"]) == 12, len(truth["groups"])
assert truth["scenario"] == {"signal_strength": 0.5, "censoring_rate": 0.1, "hazard_ratio": 2.0,
                             "base_os_hazard": 0.2, "base_dfs_hazard": 0.4, "region_len": 3,
                             "clinical_len": 4}, truth["scenario"]
PY
# An --out that names a file exits 1 with its one-line report, before any work.
status=0
trajsurv simulate --config tiny.json --out sim/cohort.json 2> out.err || status=$?
test "$status" -eq 1
test "$(wc -l < out.err)" -eq 1
# A base hazard too small for integer event times exits 1 with one stderr
# line, before any draw.
echo '{"simulate": {"n": 10, "base_os_hazard": 1e-300, "base_dfs_hazard": 1e-300}}' \
  > tiny_hazard.json
status=0
trajsurv simulate --config tiny_hazard.json --out tiny_hazard 2> tiny_hazard.err || status=$?
test "$status" -eq 1
test "$(wc -l < tiny_hazard.err)" -eq 1
test ! -e tiny_hazard/cohort.json
status=0
trajsurv || status=$?
test "$status" -eq 1
# The lazily imported gradient check: the hand-written gradients of the
# whole pipeline against central differences of its loss.
trajsurv gradcheck
# It reads no config, seed or output directory: naming one exits 1 with one
# stderr line, before the check runs.
status=0
trajsurv gradcheck --seed 3 > gradcheck_seed.out 2> gradcheck_seed.err || status=$?
test "$status" -eq 1
test "$(wc -l < gradcheck_seed.err)" -eq 1
test ! -s gradcheck_seed.out
# A diverging run exits 3 with its one-line report as the only stderr output.
echo '{"simulate": {"n": 20, "region_len": 2, "clinical_len": 2}}' > sim20.json
trajsurv simulate --config sim20.json --out sim20
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"d": 4, "T": 2, "K": 4},
       "cv": {"k": 2, "repeats": 1}, "train": {"lr": 1e300}}' > diverge.json
status=0
trajsurv crossval --config diverge.json --out diverge 2> diverge.err || status=$?
test "$status" -eq 3
test "$(wc -l < diverge.err)" -eq 1
# A tiny gat crossval run twice into one --out exits 0 both times and
# writes the same report.json, metrics.csv and curves.csv bytes.
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"backbone": "gat", "d": 4,
       "T": 2, "K": 4}, "cv": {"k": 2, "repeats": 1}}' > gat.json
trajsurv crossval --config gat.json --out gat
mkdir first
cp gat/report.json gat/metrics.csv gat/curves.csv first/
trajsurv crossval --config gat.json --out gat
for name in report.json metrics.csv curves.csv; do cmp "first/$name" "gat/$name"; done
# Its pooled C-index interval, for both tasks, holds its point and is formatted.
python3 - gat/report.json <<'PY'
import json, sys
ci = json.load(open(sys.argv[1]))["ci"]
for task in ("os", "dfs"):
    c = ci[task]
    assert c["lo"] <= c["point"] <= c["hi"], (task, c)
    assert isinstance(c["formatted"], str) and c["formatted"], (task, c)
PY
# An ablation is crossval of its override: `ablate --variant no_cascade` and
# `crossval` with `cascade: false`, run into one --out, write the same
# report.json, metrics.csv and curves.csv bytes.
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"d": 4, "T": 2, "K": 4},
       "cv": {"k": 2, "repeats": 1}, "train": {"max_epochs": 2}}' > ablate.json
trajsurv ablate --config ablate.json --variant no_cascade --out ablated
mkdir ablated_first
cp ablated/report.json ablated/metrics.csv ablated/curves.csv ablated_first/
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"d": 4, "T": 2, "K": 4,
       "cascade": false}, "cv": {"k": 2, "repeats": 1}, "train": {"max_epochs": 2}}' \
  > no_cascade.json
trajsurv crossval --config no_cascade.json --out ablated
for name in report.json metrics.csv curves.csv; do cmp "ablated_first/$name" "ablated/$name"; done
# A model written by train is read back by evaluate on its own cohort; on a
# cohort of other feature widths, evaluate exits 2 with one stderr line.
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"d": 4, "T": 2, "K": 4},
       "train": {"max_epochs": 3}}' > train.json
trajsurv train --config train.json --out trained
test -s trained/model.npz
# train fits on 16 of the 20 patients, so batches of 6 leave a last batch of
# 4. Run twice, it writes the same model.npz bytes: each backward writes
# over the state its forward kept, and nothing of one step reaches the next.
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"backbone": "graphsage", "d": 4,
       "T": 2, "K": 4}, "train": {"max_epochs": 3, "batch_size": 6}}' > partial.json
trajsurv train --config partial.json --out partial
trajsurv train --config partial.json --out partial_again
cmp partial/model.npz partial_again/model.npz
# An output file that is a directory exits 1 with one stderr line, before any work.
mkdir -p blocked/model.npz
status=0
trajsurv train --config train.json --out blocked 2> blocked.err || status=$?
test "$status" -eq 1
test "$(wc -l < blocked.err)" -eq 1
test ! -e blocked/training_log.txt
trajsurv evaluate --config train.json --model trained/model.npz --out evaluated
test -s evaluated/report.json
# One header line and one line per patient, task and bin: 1 + 20 * 2 * 4.
test "$(wc -l < evaluated/curves.csv)" -eq 161
# The same evaluate again writes the same bytes. It writes into the same
# --out, because report.json echoes the output directory.
mkdir evaluated_first
cp evaluated/report.json evaluated/metrics.csv evaluated/curves.csv evaluated_first/
trajsurv evaluate --config train.json --model trained/model.npz --out evaluated
for name in report.json metrics.csv curves.csv; do
  cmp "evaluated_first/$name" "evaluated/$name"
done
echo '{"simulate": {"n": 10, "region_len": 3, "clinical_len": 2}}' > wide.json
trajsurv simulate --config wide.json --out wide
echo '{"paths": {"cohort": "wide/cohort.json"}}' > wide_eval.json
status=0
trajsurv evaluate --config wide_eval.json --model trained/model.npz --out wide_out \
  2> wide.err || status=$?
test "$status" -eq 2
test "$(wc -l < wide.err)" -eq 1
# A model with `integrator: mean` and no cascade holds neither an LSTM nor
# context weights; train writes it, and evaluate reads it back twice with
# the same bytes.
echo '{"paths": {"cohort": "sim20/cohort.json"}, "model": {"d": 4, "T": 2, "K": 4,
       "integrator": "mean", "cascade": false}, "train": {"max_epochs": 3}}' > slim.json
trajsurv train --config slim.json --out slim
trajsurv evaluate --config slim.json --model slim/model.npz --out slim_eval
mkdir slim_first
cp slim_eval/report.json slim_eval/metrics.csv slim_eval/curves.csv slim_first/
trajsurv evaluate --config slim.json --model slim/model.npz --out slim_eval
for name in report.json metrics.csv curves.csv; do cmp "slim_first/$name" "slim_eval/$name"; done
# The cascade model's file with its metadata edited to `cascade: false`
# does not match the arrays such a model holds: evaluate exits 2 with one
# stderr line.
python3 - trained/model.npz edited.npz <<'PY'
import json, sys
import numpy as np
with np.load(sys.argv[1]) as data:
    arrays = dict(data)
meta = json.loads(bytes(arrays["__meta__"]).decode())
arrays["__meta__"] = np.frombuffer(json.dumps({**meta, "cascade": False}).encode(), np.uint8)
np.savez(sys.argv[2], **arrays)
PY
status=0
trajsurv evaluate --config train.json --model edited.npz --out edited 2> edited.err || status=$?
test "$status" -eq 2
test "$(wc -l < edited.err)" -eq 1
