"""Tests for the neural-network layers, including numerical gradient checks."""

import numpy as np
import pytest

from helpers.parity import engine_tolerances
from repro.exceptions import ConfigurationError, ModelNotBuiltError, ShapeError
from repro.nn.functional import col2im, conv_output_size
from repro.nn.layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    TransitionDown,
    conv_input_gradient,
)


def build(layer, input_shape, seed=0):
    layer.build(input_shape, np.random.default_rng(seed))
    return layer


def check_input_gradient(layer, x, rtol=1e-5, atol=1e-7):
    """Compare the layer's backward pass against a numerical input gradient.

    The scalar objective is ``sum(weights * forward(x))`` for a fixed random
    weighting, which exercises every output element.
    """
    rng = np.random.default_rng(99)
    out = layer.forward(x, training=True)
    weights = rng.normal(size=out.shape)
    analytic = layer.backward(weights)

    epsilon = 1e-6
    numerical = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_num = numerical.reshape(-1)
    for index in range(flat_x.size):
        original = flat_x[index]
        flat_x[index] = original + epsilon
        plus = float(np.sum(weights * layer.forward(x, training=True)))
        flat_x[index] = original - epsilon
        minus = float(np.sum(weights * layer.forward(x, training=True)))
        flat_x[index] = original
        flat_num[index] = (plus - minus) / (2 * epsilon)
    np.testing.assert_allclose(analytic, numerical, rtol=rtol, atol=atol)


def check_parameter_gradients(layer, x, rtol=1e-5, atol=1e-7):
    """Compare stored parameter gradients against numerical differentiation."""
    rng = np.random.default_rng(7)
    out = layer.forward(x, training=True)
    weights = rng.normal(size=out.shape)
    layer.backward(weights)
    analytic = [g.copy() for g in layer.gradients()]

    epsilon = 1e-6
    for param, grad in zip(layer.parameters(), analytic):
        numerical = np.zeros_like(param)
        flat_param = param.reshape(-1)
        flat_num = numerical.reshape(-1)
        for index in range(flat_param.size):
            original = flat_param[index]
            flat_param[index] = original + epsilon
            plus = float(np.sum(weights * layer.forward(x, training=True)))
            flat_param[index] = original - epsilon
            minus = float(np.sum(weights * layer.forward(x, training=True)))
            flat_param[index] = original
            flat_num[index] = (plus - minus) / (2 * epsilon)
        np.testing.assert_allclose(grad, numerical, rtol=rtol, atol=atol)


class TestDense:
    def test_output_shape_and_param_count(self):
        layer = build(Dense(7), (4,))
        assert layer.output_shape == (7,)
        assert layer.num_parameters == 4 * 7 + 7

    def test_forward_matches_matrix_product(self):
        layer = build(Dense(3, use_bias=False), (2,))
        x = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight)

    def test_input_gradient(self):
        layer = build(Dense(5, activation="tanh"), (3,))
        check_input_gradient(layer, np.random.default_rng(0).normal(size=(4, 3)))

    def test_parameter_gradients(self):
        layer = build(Dense(4, activation="relu"), (3,))
        check_parameter_gradients(layer, np.random.default_rng(1).normal(size=(5, 3)) + 0.1)

    def test_rejects_wrong_input_width(self):
        layer = build(Dense(4), (3,))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_requires_training_forward(self):
        layer = build(Dense(4), (3,))
        layer.forward(np.zeros((2, 3)), training=False)
        with pytest.raises(ModelNotBuiltError):
            layer.backward(np.zeros((2, 4)))

    def test_invalid_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)


class TestConv2D:
    def test_same_padding_preserves_spatial_size(self):
        layer = build(Conv2D(4, kernel_size=3, padding="same"), (6, 6, 2))
        assert layer.output_shape == (6, 6, 4)

    def test_valid_padding_shrinks(self):
        layer = build(Conv2D(2, kernel_size=3, padding="valid"), (6, 6, 1))
        assert layer.output_shape == (4, 4, 2)

    def test_stride_two(self):
        layer = build(Conv2D(2, kernel_size=2, stride=2, padding="valid"), (6, 6, 1))
        assert layer.output_shape == (3, 3, 2)

    def test_stride_two_input_gradient(self):
        # 6 is not 3 + a multiple of 2: the last row and column see no window.
        layer = build(Conv2D(3, kernel_size=3, stride=2, padding="valid", activation="tanh"),
                      (6, 6, 2))
        check_input_gradient(layer, np.random.default_rng(5).normal(size=(2, 6, 6, 2)))

    def test_one_by_one_input_gradient(self):
        # The TransitionDown compression conv.
        layer = build(Conv2D(3, kernel_size=1, padding="valid"), (4, 4, 5))
        check_input_gradient(layer, np.random.default_rng(6).normal(size=(2, 4, 4, 5)))

    def test_forward_known_value(self):
        layer = build(Conv2D(1, kernel_size=2, padding="valid", use_bias=False), (2, 2, 1))
        layer.weight[...] = np.ones_like(layer.weight)
        x = np.arange(4, dtype=np.float64).reshape(1, 2, 2, 1)
        np.testing.assert_allclose(layer.forward(x), [[[[6.0]]]])

    def test_input_gradient(self):
        layer = build(Conv2D(3, kernel_size=3, padding="same", activation="tanh"), (5, 5, 2))
        check_input_gradient(layer, np.random.default_rng(3).normal(size=(2, 5, 5, 2)))

    def test_parameter_gradients(self):
        layer = build(Conv2D(2, kernel_size=3, padding="valid"), (4, 4, 1))
        check_parameter_gradients(layer, np.random.default_rng(4).normal(size=(2, 4, 4, 1)))

    def test_same_padding_with_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            build(Conv2D(2, kernel_size=3, stride=2, padding="same"), (6, 6, 1))

    @pytest.mark.parametrize("kernel_size", [2, 4])
    def test_same_padding_with_even_kernel_rejected(self, kernel_size):
        # (k-1)//2 padding would silently shrink 6x6 to 5x5.
        with pytest.raises(ConfigurationError):
            build(Conv2D(2, kernel_size=kernel_size, padding="same"), (6, 6, 1))

    def test_rejects_wrong_input_shape(self):
        layer = build(Conv2D(2, kernel_size=3), (6, 6, 1))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 6, 6, 2)))


#: (kernel, padding mode, stride): every geometry Conv2D accepts for k ∈ {1, 3, 5}.
CONV_GEOMETRIES = [
    (kernel, padding, stride)
    for kernel in (1, 3, 5)
    for padding in ("same", "valid")
    for stride in (1, 2)
    if not (padding == "same" and stride != 1)
]


class TestConvInputGradient:
    """``conv_input_gradient`` against the ``col2im`` fold of the patch gradient.

    The GEMM sums the same products as the fold in another order, so values
    are compared under the cross-engine tolerance built on
    ``repro.backend.parity_tolerance`` (absolute slack scaled to the
    gradient's magnitude), not bit for bit.
    """

    @staticmethod
    def reference(grad_pre, weight, input_shape, kernel, stride, padding):
        grad_columns = grad_pre.reshape(-1, weight.shape[1]) @ weight.T
        return col2im(grad_columns, input_shape, kernel, kernel, stride, padding)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channels,filters", [(1, 4), (3, 2), (4, 8)])
    @pytest.mark.parametrize("kernel,padding_mode,stride", CONV_GEOMETRIES)
    def test_matches_col2im_reference(
        self, kernel, padding_mode, stride, channels, filters, dtype
    ):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + channels)
        padding = (kernel - 1) // 2 if padding_mode == "same" else 0
        input_shape = (2, 7, 6, channels)
        out_h = conv_output_size(7, kernel, stride, padding)
        out_w = conv_output_size(6, kernel, stride, padding)
        grad_pre = rng.normal(size=(2, out_h, out_w, filters)).astype(dtype)
        weight = rng.normal(size=(kernel * kernel * channels, filters)).astype(dtype)

        got = conv_input_gradient(grad_pre, weight, input_shape, kernel, stride, padding)
        want = self.reference(
            grad_pre.astype(np.float64), weight.astype(np.float64),
            input_shape, kernel, stride, padding,
        )

        assert got.dtype == dtype and got.shape == input_shape
        tol = engine_tolerances(dtype)
        np.testing.assert_allclose(
            got, want, rtol=tol["rtol"], atol=tol["atol"] + tol["rtol"] * np.abs(want).max()
        )

    @pytest.mark.parametrize("kernel,padding_mode,stride", CONV_GEOMETRIES)
    def test_stacked_workers_match_each_worker(self, kernel, padding_mode, stride):
        # The batched engine folds K workers into the sample axis and passes
        # the stacked (K, k·k·C, F) kernels; each worker's slice is its own
        # sequential call, value for value.
        rng = np.random.default_rng(kernel + stride)
        padding = (kernel - 1) // 2 if padding_mode == "same" else 0
        workers, batch, channels, filters = 3, 2, 3, 4
        out = conv_output_size(6, kernel, stride, padding)
        grad_pre = rng.normal(size=(workers * batch, out, out, filters))
        weight = rng.normal(size=(workers, kernel * kernel * channels, filters))

        stacked = conv_input_gradient(
            grad_pre, weight, (workers * batch, 6, 6, channels), kernel, stride, padding
        )
        for k in range(workers):
            rows = slice(k * batch, (k + 1) * batch)
            np.testing.assert_array_equal(
                stacked[rows],
                conv_input_gradient(
                    grad_pre[rows], weight[k], (batch, 6, 6, channels), kernel, stride, padding
                ),
            )


class TestPooling:
    def test_maxpool_forward(self):
        layer = build(MaxPool2D(2), (4, 4, 1))
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        np.testing.assert_array_equal(
            layer.forward(x)[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]]
        )

    def test_maxpool_backward_routes_to_argmax(self):
        layer = build(MaxPool2D(2), (2, 2, 1))
        x = np.array([[[[1.0], [3.0]], [[2.0], [0.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[5.0]]]]))
        np.testing.assert_array_equal(grad[0, :, :, 0], [[0.0, 5.0], [0.0, 0.0]])

    def test_maxpool_input_gradient(self):
        layer = build(MaxPool2D(2), (4, 4, 2))
        # Use well-separated values so the argmax is stable under perturbation.
        x = np.random.default_rng(0).permutation(32).astype(np.float64).reshape(1, 4, 4, 2) * 10
        check_input_gradient(layer, x)

    def test_avgpool_forward(self):
        layer = build(AvgPool2D(2), (4, 4, 1))
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        np.testing.assert_array_equal(
            layer.forward(x)[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]]
        )

    def test_avgpool_input_gradient(self):
        layer = build(AvgPool2D(2), (4, 4, 3))
        check_input_gradient(layer, np.random.default_rng(2).normal(size=(2, 4, 4, 3)))

    def test_globalavgpool(self):
        layer = build(GlobalAvgPool2D(), (3, 3, 2))
        x = np.random.default_rng(5).normal(size=(2, 3, 3, 2))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(1, 2)))
        check_input_gradient(layer, x)


def _col2im_pool_backward_reference(layer, grad_output):
    """The pre-vectorization backward scatter (patch matrix + col2im loop).

    Kept verbatim as the reference implementation for the flat ``np.add.at``
    scatter that replaced it; exercised for both pool types, including
    overlapping (stride < pool_size) windows.
    """
    from repro.nn.functional import col2im
    from repro.nn.layers import AvgPool2D as _Avg

    if isinstance(layer, _Avg):
        shape = layer._cache_shape
        rows = grad_output.shape[0] * grad_output.shape[1] * grad_output.shape[2]
        window = layer.pool_size * layer.pool_size
        channels = shape[3]
        grad_flat = grad_output.reshape(rows, channels) / float(window)
        grad_patches = np.repeat(grad_flat[:, None, :], window, axis=1)
    else:
        shape = layer._cache_shape
        rows = layer._cache_argmax.shape[0]
        window = layer.pool_size * layer.pool_size
        channels = shape[3]
        grad_patches = np.zeros((rows, window, channels), dtype=grad_output.dtype)
        grad_flat = grad_output.reshape(rows, channels)
        np.put_along_axis(
            grad_patches, layer._cache_argmax[:, None, :], grad_flat[:, None, :], axis=1
        )
    grad_columns = grad_patches.reshape(rows, window * channels)
    return col2im(
        grad_columns, shape, layer.pool_size, layer.pool_size, layer.stride, 0
    )


class TestPoolBackwardScatter:
    """The vectorized flat-index scatter must match the col2im reference."""

    @pytest.mark.parametrize("pool_cls", [MaxPool2D, AvgPool2D])
    @pytest.mark.parametrize(
        "pool_size,stride", [(2, 2), (3, 3), (3, 2), (2, 1)],
        ids=["2x2", "3x3", "overlap-3s2", "overlap-2s1"],
    )
    def test_matches_col2im_reference(self, pool_cls, pool_size, stride):
        rng = np.random.default_rng(42)
        layer = build(pool_cls(pool_size, stride=stride), (7, 7, 3))
        x = rng.normal(size=(4, 7, 7, 3))
        out = layer.forward(x, training=True)
        grad_output = rng.normal(size=out.shape)
        vectorized = layer.backward(grad_output)
        reference = _col2im_pool_backward_reference(layer, grad_output)
        np.testing.assert_allclose(vectorized, reference, rtol=1e-12, atol=1e-12)
        assert vectorized.shape == x.shape


class TestFlattenDropoutActivation:
    def test_flatten_round_trip(self):
        layer = build(Flatten(), (2, 3, 4))
        x = np.random.default_rng(0).normal(size=(5, 2, 3, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (5, 24)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_dropout_inference_is_identity(self):
        layer = build(Dropout(0.5, seed=0), (10,))
        x = np.ones((4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_dropout_training_scales_survivors(self):
        layer = build(Dropout(0.5, seed=0), (1000,))
        out = layer.forward(np.ones((1, 1000)), training=True)
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.35 < survivors.size / 1000 < 0.65

    def test_dropout_backward_uses_same_mask(self):
        layer = build(Dropout(0.3, seed=1), (50,))
        out = layer.forward(np.ones((2, 50)), training=True)
        grad = layer.backward(np.ones((2, 50)))
        np.testing.assert_array_equal(grad > 0, out > 0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)

    def test_activation_layer_gradient(self):
        layer = build(Activation("gelu"), (6,))
        check_input_gradient(layer, np.random.default_rng(0).normal(size=(3, 6)))


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        layer = build(BatchNorm(), (8,))
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 8))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_statistics_move_toward_batch(self):
        layer = build(BatchNorm(momentum=0.5), (4,))
        x = np.full((16, 4), 2.0)
        layer.forward(x, training=True)
        np.testing.assert_allclose(layer.running_mean, 1.0)  # 0.5*0 + 0.5*2

    def test_inference_uses_running_statistics(self):
        layer = build(BatchNorm(momentum=0.0), (2,))
        train_x = np.random.default_rng(1).normal(loc=3.0, size=(100, 2))
        layer.forward(train_x, training=True)
        out = layer.forward(train_x, training=False)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=0.1)

    def test_input_gradient_dense_input(self):
        layer = build(BatchNorm(), (5,))
        check_input_gradient(
            layer, np.random.default_rng(3).normal(size=(8, 5)), rtol=1e-4, atol=1e-6
        )

    def test_input_gradient_conv_input(self):
        layer = build(BatchNorm(), (3, 3, 2))
        check_input_gradient(
            layer, np.random.default_rng(4).normal(size=(4, 3, 3, 2)), rtol=1e-4, atol=1e-6
        )

    def test_parameter_gradients(self):
        layer = build(BatchNorm(), (4,))
        check_parameter_gradients(
            layer, np.random.default_rng(5).normal(size=(6, 4)), rtol=1e-4, atol=1e-6
        )

    def test_buffers_exposed(self):
        layer = build(BatchNorm(), (4,))
        assert len(layer.buffers()) == 2


class TestCompositeLayers:
    def test_dense_block_output_channels(self):
        layer = build(DenseBlock(num_layers=2, growth_rate=3), (4, 4, 2))
        assert layer.output_shape == (4, 4, 2 + 2 * 3)

    def test_dense_block_forward_backward_shapes(self):
        layer = build(DenseBlock(num_layers=2, growth_rate=2), (4, 4, 1))
        x = np.random.default_rng(0).normal(size=(3, 4, 4, 1))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert len(layer.parameters()) == len(layer.gradients())

    def test_dense_block_gradient_check(self):
        layer = build(DenseBlock(num_layers=1, growth_rate=2), (3, 3, 1))
        check_input_gradient(
            layer, np.random.default_rng(1).normal(size=(2, 3, 3, 1)), rtol=1e-4, atol=1e-6
        )

    def test_transition_down_halves_spatial_size(self):
        layer = build(TransitionDown(0.5), (6, 6, 8))
        assert layer.output_shape == (3, 3, 4)

    def test_transition_down_forward_backward(self):
        layer = build(TransitionDown(0.5), (4, 4, 4))
        x = np.random.default_rng(2).normal(size=(2, 4, 4, 4))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            DenseBlock(0, 4)
        with pytest.raises(ConfigurationError):
            TransitionDown(0.0)
