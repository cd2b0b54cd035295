"""Workload ``paper-table1``: the paper's two-stage pipeline at small scale.

Configured as ``repro-events experiment --scale small --tables 1``
configures it.  Each round is ``prepare()`` (encoder fit, Siamese
init, representation training, vector precompute) on a fresh
``TwoStageExperiment`` over the same dataset, then ``run_table1()``
(the four settings, a GBDT combiner each) twice.  Rounds repeat while
the run's time lasts.  Run as a process of its own by ``run.py``.
"""

from __future__ import annotations

import time


import numpy as np

import checks
from common import peak_rss_mb_self, scale_time, summary
from tracing import SpanRecorder, durations, self_times
from workload import Outcome, mark_ready, parse_args

SCORE_SETTING = "Add Score and Rep."
# Settings that include the baseline features must beat chance.
BASELINE_SETTINGS = ("Baseline", "Add Rep. Vectors", "Add Score and Rep.")
TINY_EPOCHS = 1
# The world of ``repro-events experiment`` at its default --seed; the
# workload seed sets the model's initialisation and training order.
DATA_SEED = 0
CAL_BURST_S = 0.15  # calibration before, between and after the calls
TABLE1_REPEATS = 2  # run_table1() calls per prepare()

TRACED = [
    ("repro.datagen.dataset:build_dataset", "datagen.build_dataset"),
    ("repro.text.documents:DocumentEncoder.fit", "text.encoder_fit"),
    ("repro.core.siamese:SiameseEventInitializer.fit", "core.siamese_fit"),
    ("repro.core.trainer:RepresentationTrainer.fit", "core.trainer_fit"),
    ("repro.core.model:JointUserEventModel.train_step", "core.train_step"),
    ("repro.core.extraction:log_sum_exp_pool", "nn.log_sum_exp_pool"),
    ("repro.core.extraction:log_sum_exp_pool_backward", "nn.log_sum_exp_pool"),
    ("repro.features.rep_features:RepresentationFeatureProvider.from_model",
     "features.provider"),
    ("repro.features.pipeline:CombinerFeaturePipeline.fit", "features.pipeline"),
    ("repro.features.pipeline:CombinerFeaturePipeline.build", "features.pipeline"),
    ("repro.gbdt.boosting:GBDTClassifier.fit", "gbdt.fit"),
    ("repro.gbdt.tree:RegressionTree.fit", "gbdt.tree_fit"),
    ("repro.gbdt.boosting:GBDTClassifier.predict_proba", "gbdt.predict"),
    ("repro.eval.protocol:evaluate_scores", "eval.evaluate"),
    ("repro.eval.protocol:pr_curve", "eval.evaluate"),
    ("repro.eval.protocol:TwoStageExperiment.prepare", "eval.prepare"),
    ("repro.eval.protocol:TwoStageExperiment.run_table1", "eval.run_table1"),
]


def experiment_factory(seed: int, tiny: bool):
    """The CLI's ``experiment --scale small --tables 1`` configuration."""
    from repro.core.config import JointModelConfig, TrainingConfig
    from repro.datagen import dataset as datagen
    from repro.datagen.config import DataConfig
    from repro.eval.protocol import TwoStageExperiment
    from repro.gbdt.boosting import GBDTConfig

    data = datagen.build_dataset(DataConfig.small(seed=DATA_SEED))
    epochs = TINY_EPOCHS if tiny else 6  # the CLI's default --epochs

    def make() -> TwoStageExperiment:
        return TwoStageExperiment(
            data,
            model_config=JointModelConfig.small(seed=seed),
            training_config=TrainingConfig(epochs=epochs, seed=seed),
            gbdt_config=GBDTConfig(num_trees=40, max_leaves=8, min_samples_leaf=5),
            use_siamese_init=True,
            min_df=1,
        )

    return make


def check_results(results, first, outcome: Outcome) -> None:
    """Mann-Whitney AUC equals the report; scores repeat bit for bit."""
    for name, result in results.items():
        auc = checks.mann_whitney_auc(result.labels, result.scores)
        if abs(auc - result.report.auc) > 1e-12:
            outcome.fail(f"{name}: reported AUC {result.report.auc!r}, "
                         f"Mann-Whitney {auc!r}")
        if name in BASELINE_SETTINGS and not auc > 0.5:
            outcome.fail(f"{name}: AUC {auc!r} is not above chance")
        if first is not None and not np.array_equal(result.scores, first[name].scores):
            outcome.fail(f"{name}: scores differ from the first round")


def main() -> None:
    args = parse_args(__doc__)
    outcome = Outcome("mixed")
    import_start = time.perf_counter()
    import repro.eval.protocol  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - import_start
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        for target, name in TRACED:
            recorder.install(target, name)
    make = experiment_factory(args.seed, args.tiny)
    mark_ready(outcome)
    outcome.info.update(import_s=import_s,
                        seeds={"world": DATA_SEED, "model": args.seed})
    if args.probe:
        outcome.write(args.result)
        return

    cal = outcome.calibration
    samples = {"train_s": [], "table1_s": []}
    first = None
    auc = []
    rounds = []
    measure_start = time.perf_counter()
    deadline = measure_start + args.seconds
    while True:
        # one round: prepare(), then run_table1() TABLE1_REPEATS times
        outcome.attempted += 1 + TABLE1_REPEATS
        record = {"train_s": None, "table1_s": [], "cal_s": [cal.burst(CAL_BURST_S)]}
        rounds.append(record)
        try:
            experiment = make()
            start = time.perf_counter()
            experiment.prepare()
            record["train_s"] = time.perf_counter() - start
            record["cal_s"].append(cal.burst(CAL_BURST_S))
            samples["train_s"].append((record["train_s"], record["cal_s"]))
            for _ in range(TABLE1_REPEATS):
                start = time.perf_counter()
                results = experiment.run_table1()
                record["table1_s"].append(time.perf_counter() - start)
                record["cal_s"].append(cal.burst(CAL_BURST_S))
                samples["table1_s"].append((record["table1_s"][-1], record["cal_s"][-2:]))
                check_results(results, first, outcome)
                first = first or results
                auc.append(results[SCORE_SETTING].report.auc)
        except Exception as error:  # fails this call and the round's rest
            done = (record["train_s"] is not None) + len(record["table1_s"])
            for _ in range(1 + TABLE1_REPEATS - done):
                outcome.fail(f"{type(error).__name__}: {error}")
            break
        if time.perf_counter() >= deadline:
            break
    measure_end = time.perf_counter()
    if first is None:
        outcome.write(args.result)
        return

    for name, values in samples.items():
        outcome.raw[name] = summary(raw for raw, _ in values)["p50"]
        # each call is scaled by the mean of the bursts on either side
        outcome.scaled[name] = summary(
            scale_time(raw, sum(bursts) / len(bursts), cal.nominal)
            for raw, bursts in values)["p50"]
    outcome.raw["table1_auc"] = auc[0]
    outcome.raw["peak_rss_mb"] = peak_rss_mb_self()
    outcome.info.update(
        rounds=rounds, measure_s=measure_end - measure_start,
        auc={name: result.report.auc for name, result in first.items()},
    )
    if recorder is not None:
        recorder.active = False
        outcome.layers = layer_metrics(recorder, import_s, measure_start, measure_end)
        if args.spans is not None:
            recorder.write(args.spans, {"workload": "paper-table1"})
    outcome.write(args.result)


def layer_metrics(recorder, import_s, start, end) -> dict:
    spans = recorder.as_dicts()
    measured = [span for span in spans if start <= span["start"] <= end]
    prepares = len(durations(measured, "eval.prepare"))
    tables = len(durations(measured, "eval.run_table1"))

    def per_prepare(name):
        return sum(durations(measured, name)) / prepares if prepares else None

    def per_table(name):
        return sum(durations(measured, name)) / tables if tables else None

    def p50(name, scale):
        values = durations(measured, name)
        return summary(values)["p50"] * scale if values else None

    return {
        "startup.import_s": import_s,
        "datagen.build_dataset_s": sum(durations(spans, "datagen.build_dataset")),
        "text.encoder_fit_s": per_prepare("text.encoder_fit"),
        "core.siamese_fit_s": per_prepare("core.siamese_fit"),
        "core.trainer_fit_s": per_prepare("core.trainer_fit"),
        "core.train_step_p50_ms": p50("core.train_step", 1e3),
        "nn.log_sum_exp_pool_s": per_prepare("nn.log_sum_exp_pool"),
        "features.provider_s": per_prepare("features.provider"),
        "features.pipeline_s": per_table("features.pipeline"),
        "gbdt.fit_s": per_table("gbdt.fit"),
        "gbdt.tree_fit_p50_ms": p50("gbdt.tree_fit", 1e3),
        "gbdt.trees_fit": len(durations(measured, "gbdt.tree_fit")) / tables if tables else None,
        "gbdt.predict_s": per_table("gbdt.predict"),
        "eval.evaluate_s": per_table("eval.evaluate"),
        "self_time_s": {
            name: row["self_s"] for name, row in self_times(spans, start, end).items()
        },
    }


if __name__ == "__main__":
    main()
