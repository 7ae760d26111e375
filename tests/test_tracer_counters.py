"""bench/tracer.py's AdamW counter still reads this optimizer's signature.

The tracer drops a counter silently when the traced function's arguments
change, which would leave the per-layer row
`pretrain.training.adamw_step.arrays_per_step` empty. This installs the
tracer around a 2-step micro pretrain and checks every AdamW span.
"""

import importlib.util
from pathlib import Path

from hsimae import hsidata, model, training

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_adamw_span_counts_the_named_gradients():
    cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
    config = model.micro_config()
    tracer = _tracer()
    tracer.install()
    try:
        params, _ = training.pretrain([cube], config,
                                      training.TrainSettings(steps=2),
                                      run_seed=1)
    finally:
        tracer.uninstall()
    steps = tracer.summarize(0, tracer.mark())["training.adamw_step"]
    # pretrain reaches every parameter but the classifier head
    named = len(params.arrays) - len(training.PROBE_PARAMS)
    assert steps["calls"] == 2
    assert steps["attrs"] == [{"arrays": named}] * 2
