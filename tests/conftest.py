import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import seu_forge as sf


@pytest.fixture(autouse=True)
def numpy_state_kept():
    """Fail any test that leaves numpy's ufunc buffer size or error state
    changed, such as a kernel that sets them and does not restore them.
    numpy >= 2 restores both when ``np.errstate`` exits; numpy 1.x keeps a
    buffer size set inside it."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    if after != before:
        pytest.fail(f"numpy state changed from {before} to {after}")


@pytest.fixture(scope="session")
def tiny_graph():
    """2-level/4-filter/3-class model with default (compensated) dynamics."""
    g = sf.build_unet(2, 4, 3, 3)
    return sf.generate_toy_weights(g, 5)


@pytest.fixture(scope="session")
def tiny_inputs():
    inputs, labels = sf.generate_calibration_set((16, 16, 3), count=6, seed=11,
                                                 class_count=3)
    return inputs, labels


@pytest.fixture(scope="session")
def tiny_batch(tiny_inputs):
    return sf.batch_inputs(tiny_inputs[0])


@pytest.fixture(scope="session")
def tiny_golden(tiny_graph, tiny_batch):
    return sf.run_float(tiny_graph, tiny_batch)


def single_conv_graph(kernel, bias, *, padding="same", stride=1,
                      kind="output_conv", input_channels=None):
    """Minimal one-conv ModelGraph for targeted unit tests."""
    kernel = np.asarray(kernel, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    kh, kw, cin, cout = kernel.shape
    layer = sf.LayerSpec(kind, "conv", {"kernel_size": kh, "stride": stride,
                                        "padding": padding, "filters": cout},
                         ["input"])
    params = [
        sf.ParamSet(1, "conv", "conv_kernel", sf.Tensor.from_array(kernel)),
        sf.ParamSet(2, "conv", "conv_bias", sf.Tensor.from_array(bias)),
    ]
    meta = {"input_channels": input_channels or cin}
    return sf.ModelGraph([layer], params, cout, meta)


def chain_graph(dead_branch=False):
    """Hand-built model_b-like float graph (4 input channels, 4 classes).

    conv_a -> bn_a -> relu_a -> pool_a is a channel chain ending at a
    maxpool. conv_b -> bn_b -> relu_b ends at relu_b: the maxpool pool_b
    follows it, but relu_b also feeds the skip concat. With ``dead_branch``,
    pool_b also feeds conv_d -> relu_d -> conv_e, whose result nothing reads.
    """
    from seu_forge.model import assign_param_indices

    layers, params = [], []

    def conv(kind, name, src, k, cin, cout, **hyper):
        layers.append(sf.LayerSpec(kind, name, {"kernel_size": k, "filters": cout, **hyper},
                                   [src]))
        kr, br = (("convtr_kernel", "convtr_bias") if kind == "conv2d_transpose"
                  else ("conv_kernel", "conv_bias"))
        params.append(sf.ParamSet(0, name, kr, sf.Tensor.from_array(np.zeros((k, k, cin, cout)))))
        params.append(sf.ParamSet(0, name, br, sf.Tensor.from_array(np.zeros(cout))))

    def block(tag, src, cin, cout):
        conv("conv2d", f"conv_{tag}", src, 3, cin, cout, stride=1, padding="same")
        layers.append(sf.LayerSpec("batchnorm", f"bn_{tag}", {}, [f"conv_{tag}"]))
        for role in ("bn_gamma", "bn_beta", "bn_mu", "bn_sigma"):
            params.append(sf.ParamSet(0, f"bn_{tag}", role,
                                      sf.Tensor.from_array(np.zeros(cout))))
        layers.append(sf.LayerSpec("relu", f"relu_{tag}", {}, [f"bn_{tag}"]))

    def pool(name, src):
        layers.append(sf.LayerSpec("maxpool", name, {"window": 2, "stride": 2}, [src]))

    block("a", "input", 4, 8)                       # 16x16
    pool("pool_a", "relu_a")
    block("b", "pool_a", 8, 8)                      # 8x8
    pool("pool_b", "relu_b")
    if dead_branch:
        conv("conv2d", "conv_d", "pool_b", 3, 8, 4, stride=1, padding="same")
        layers.append(sf.LayerSpec("relu", "relu_d", {}, ["conv_d"]))
        conv("conv2d", "conv_e", "relu_d", 1, 4, 4, stride=1, padding="same")
    block("c", "pool_b", 8, 8)                      # 4x4
    conv("conv2d_transpose", "up", "relu_c", 2, 8, 8, stride=2)
    layers.append(sf.LayerSpec("concat", "cat", {}, ["relu_b", "up"]))
    conv("conv2d_transpose", "up_2", "cat", 2, 16, 8, stride=2)
    conv("output_conv", "out", "up_2", 1, 8, 4, stride=1, padding="same")
    graph = sf.ModelGraph(layers, assign_param_indices(params), 4, {"input_channels": 4})
    return sf.generate_toy_weights(graph, 3, kernel_scale=2.0)


def spy_walks(monkeypatch, module):
    """Record (fault sets, resumed exits) of every ``_fault_loop`` walk ``module`` runs."""
    import seu_forge.campaign as campaign
    walks, real = [], campaign._fault_loop

    def fault_loop(graph, batch, fault_sets):
        exits, golden = real(graph, batch, fault_sets)
        walks.append((len(fault_sets), sum(ex.maps is not None for ex in exits)))
        return exits, golden

    monkeypatch.setattr(module, "_fault_loop", fault_loop)
    return walks
