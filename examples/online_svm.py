"""Adaptive learning over a drifting stream (paper §6.2.2).

An SVM is trained continuously on a stream whose true separating
hyperplane rotates over time.  The main loop uses the *bold driver*
heuristic to keep its descent rate matched to the drift; branch-loop
queries deliver converged models on demand.

Run with::

    python examples/online_svm.py
"""

import numpy as np

from repro.algorithms import BoldDriver, HingeLoss, svm_application
from repro.algorithms.sgd import PARAM
from repro.core import TornadoConfig, TornadoJob
from repro.datagen import higgs_like
from repro.streams import UniformRate, instance_stream

DIM = 12


def accuracy(weights, instances):
    xs = np.stack([inst.x() for inst in instances])
    ys = np.asarray([inst.label for inst in instances], dtype=float)
    return float((np.sign(xs @ weights) == ys).mean())


def main():
    instances, _true_w = higgs_like(480, dim=DIM, seed=11, noise=0.1,
                                    drift=1.0)
    app = svm_application(dim=DIM, n_samplers=4,
                          schedule_factory=lambda: BoldDriver(0.2),
                          batch_size=16, reservoir_capacity=400)
    job = TornadoJob(app, TornadoConfig(n_processors=4,
                                        storage_backend="memory"))
    job.feed(instance_stream(instances, UniformRate(rate=800.0)))

    loss = HingeLoss(l2=1e-3)
    print("time   rate     recent-accuracy  objective")
    for step in range(1, 7):
        job.run(until=step * 0.1)
        param = job.main_values().get(PARAM)
        if param is None:
            continue
        seen = min(job.ingester.tuples_ingested, len(instances))
        recent = instances[max(0, seen - 200):seen]
        xs = np.stack([inst.x() for inst in recent])
        ys = np.asarray([inst.label for inst in recent], dtype=float)
        print(f"{job.sim.now:5.2f}  {param.schedule.rate:7.4f}  "
              f"{accuracy(param.weights, recent):15.3f}  "
              f"{loss.objective(param.weights, xs, ys):9.4f}")

    result = job.query_and_wait()
    weights = result.values[PARAM].weights
    seen = min(job.ingester.tuples_ingested, len(instances))
    recent = instances[max(0, seen - 200):seen]
    print(f"\nbranch-loop model accuracy on recent data: "
          f"{accuracy(weights, recent):.3f} "
          f"(query latency {result.latency * 1000:.1f} virtual ms)")


if __name__ == "__main__":
    main()
