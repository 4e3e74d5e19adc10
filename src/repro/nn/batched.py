"""Batched K-worker compute kernels: one forward/backward for the whole cluster.

The simulator stores all ``K`` worker models as rows of one contiguous
``(K, d)`` parameter matrix (see :mod:`repro.nn.plane` and
:class:`~repro.distributed.cluster.SimulatedCluster`).  The sequential
execution path still *computes* per worker: ``K`` Python-level forward and
backward passes over small matrices, which is exactly where the paper's large
``K`` sweeps spend their time.  This module exploits the storage layout on
the compute side:

* :class:`BatchedPlane` carves each layer array's ``K`` per-worker tensors
  out of the cluster matrices as **strided views** — for a ``Dense`` kernel
  the column block ``matrix[:, o:o+in*out]`` reshaped to ``(K, in, out)``.
  No parameter is copied; mutating a view mutates the worker models.
* Per-layer **kernels** (:class:`BatchedDense`, :class:`BatchedConv2D`, …)
  advance all workers at once: ``Dense`` is a single stacked-GEMM
  (``(K, B, in) @ (K, in, out)``, the einsum ``kbi,kio->kbo``), ``Conv2D``
  folds the worker axis into the im2col batch, and parameter-free layers
  operate on the folded ``(K·B, ...)`` tensor directly.  Activations are
  elementwise and shared verbatim with the sequential layers.
* :class:`BatchedModel` chains the kernels into ``train_batch`` over stacked
  ``(K, B, ...)`` mini-batches, writing every worker's gradients into the
  ``(K, d)`` gradient matrix in one backward pass.

Per-worker arithmetic is element-for-element the same as the sequential
layers (same GEMM shapes per worker slice, same reduction extents), so the
two engines agree to tight floating-point tolerance; the cross-engine parity
suite (``tests/helpers/parity.py``) pins this down per strategy.

RNG-stateful layers are supported through *worker binding*: ``Dropout`` keeps
one private mask stream per worker, so :class:`BatchedDropout` holds every
worker's own layer object and draws each active row's mask from that worker's
stream (via :meth:`~repro.nn.layers.Dropout.sample_mask`, the same helper the
sequential path consumes) before one vectorized multiply — the streams replay
exactly.  A :class:`BatchedModel` that contains such layers must therefore be
constructed with ``worker_models``.  Composites of unsupported pieces
(``DenseBlock``, ``TransitionDown``) still have no kernel;
:func:`unsupported_layers` lets the engine reject such models up front with a
clear message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.exceptions import ShapeError
# No kernel here calls ``col2im`` (strided conv input gradients fold in
# ``nn.layers.conv_input_gradient``); the name stays bound because the
# benchmark's traced run (perfbench/probes.py) wraps it in this module.
from repro.nn.functional import avg_pool_backward, col2im, im2col, max_pool_backward
from repro.nn.layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    conv_input_gradient,
)
from repro.nn.losses import Loss
from repro.nn.model import Sequential, backward_parameters, first_trainable
from repro.nn.plane import SlotLayout


def _carve(matrix: np.ndarray, entry: SlotLayout) -> np.ndarray:
    """A zero-copy ``(K, *shape)`` view of one layer array across all workers."""
    block = matrix[:, entry.offset : entry.offset + entry.size]
    view = block.reshape((matrix.shape[0],) + tuple(entry.shape))
    # The bounds-overlap check suffices to detect a reshape that copied (a
    # fresh buffer cannot overlap the matrix); np.shares_memory's exact
    # solver can take milliseconds *per slot* on strided scratch views, which
    # made deep models' plane construction seconds-slow.
    if not np.may_share_memory(view, matrix):
        raise ShapeError(
            f"carving slot {entry} produced a copy instead of a view; "
            "the backing matrix must be C-contiguous"
        )
    return view


class BatchedPlane:
    """Strided per-layer views over a cluster's stacked state matrices.

    ``param_matrix``/``grad_matrix`` are ``(K, d)`` and ``buffer_matrix`` is
    ``(K, num_buffers)``; rows are the workers.  For every layer of the
    ``reference`` model (the structural template shared by all workers) the
    plane exposes the layer's parameter, gradient, and buffer arrays as
    ``(K, *shape)`` views, aligned with the layer's ``*_refs()`` order.
    """

    def __init__(
        self,
        reference: Sequential,
        param_matrix: np.ndarray,
        grad_matrix: np.ndarray,
        buffer_matrix: np.ndarray,
    ) -> None:
        plane = reference.plane
        expected = {
            "parameter": (param_matrix, plane.num_parameters),
            "gradient": (grad_matrix, plane.num_parameters),
            "buffer": (buffer_matrix, plane.num_buffers),
        }
        rows = {matrix.shape[0] for matrix, _ in expected.values()}
        if len(rows) != 1:
            raise ShapeError(f"state matrices disagree on the worker count: {sorted(rows)}")
        for kind, (matrix, width) in expected.items():
            if matrix.ndim != 2 or matrix.shape[1] != width:
                raise ShapeError(
                    f"{kind} matrix must have shape (K, {width}), got {matrix.shape}"
                )
        self.num_workers = int(param_matrix.shape[0])
        self.param_matrix = param_matrix
        self.grad_matrix = grad_matrix
        self.buffer_matrix = buffer_matrix

        param_entries = iter(plane.parameter_layout())
        grad_entries = iter(plane.gradient_layout())
        buffer_entries = iter(plane.buffer_layout())
        #: Per layer (in model order): (param views, grad views, buffer views).
        self.layer_views: List[
            Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]
        ] = []
        for layer in reference.layers:
            params = [_carve(param_matrix, next(param_entries)) for _ in layer.parameter_refs()]
            grads = [_carve(grad_matrix, next(grad_entries)) for _ in layer.gradient_refs()]
            buffers = [_carve(buffer_matrix, next(buffer_entries)) for _ in layer.buffer_refs()]
            self.layer_views.append((params, grads, buffers))

    def __repr__(self) -> str:
        return (
            f"BatchedPlane(K={self.num_workers}, d={self.param_matrix.shape[1]}, "
            f"layers={len(self.layer_views)})"
        )


# -- kernels -------------------------------------------------------------------


class BatchedKernel:
    """Batched counterpart of one layer: forward/backward over ``(K, B, ...)``.

    ``params``/``grads``/``buffers`` are the :class:`BatchedPlane` views for
    the layer, in the layer's ``*_refs()`` order.  Kernels cache activations
    exactly like their sequential counterparts; the per-worker slice of every
    computation matches the sequential layer's arithmetic.
    """

    #: Whether the kernel needs every worker's own layer object (RNG-stateful
    #: layers); :class:`BatchedModel` then calls :meth:`bind_worker_layers`.
    needs_worker_layers = False

    def __init__(
        self,
        layer: Layer,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        buffers: Sequence[np.ndarray],
    ) -> None:
        self.layer = layer
        #: Index array of the worker rows the current pass covers (``None`` =
        #: all workers); set by :meth:`BatchedModel.forward` on kernels that
        #: declared ``needs_worker_layers``.
        self.active_rows: Optional[np.ndarray] = None

    def bind_worker_layers(self, layers: Sequence[Layer]) -> None:
        """Receive the per-worker layer objects (RNG-stateful kernels only)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Backward pass; kernels with parameters honour ``need_input_grad``
        like their layers (see :mod:`repro.nn.layers`)."""
        raise NotImplementedError


class BatchedDense(BatchedKernel):
    """All workers' ``Dense`` layers as one stacked GEMM (``kbi,kio->kbo``)."""

    def __init__(self, layer: Dense, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.activation = layer.activation
        self.use_bias = layer.use_bias
        self.weight = params[0]
        self.grad_weight = grads[0]
        self.bias = params[1] if layer.use_bias else None
        self.grad_bias = grads[1] if layer.use_bias else None
        # Hot-path view caches: the plane's storage never moves after engine
        # construction, so the transposed-weight and broadcast-bias views can
        # be built once instead of per step.
        self._weight_T = self.weight.transpose(0, 2, 1)
        self._bias_row = self.bias[:, None, :] if layer.use_bias else None
        self._cache_x: Optional[np.ndarray] = None
        self._cache_act: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        pre = np.matmul(x, self.weight)
        if self.use_bias:
            pre += self._bias_row  # fresh matmul output: in-place add is safe
        out = self.activation.forward(pre)
        if training:
            self._cache_x = x
            self._cache_act = pre if self.activation.cache_input else out
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        grad_pre = self.activation.gradient(grad_output, self._cache_act)
        np.matmul(self._cache_x.transpose(0, 2, 1), grad_pre, out=self.grad_weight)
        if self.use_bias:
            grad_pre.sum(axis=1, out=self.grad_bias)
        return np.matmul(grad_pre, self._weight_T) if need_input_grad else None


class BatchedConv2D(BatchedKernel):
    """All workers' ``Conv2D`` layers via one K-folded im2col + stacked GEMM.

    The worker axis is folded into the im2col batch (patches are per-sample,
    so folding is exact), then the patch matrix is regrouped per worker and
    multiplied against the stacked ``(K, fan_in, filters)`` kernels.  The
    input gradient folds the same way through the layer's own
    :func:`~repro.nn.layers.conv_input_gradient`.
    """

    def __init__(self, layer: Conv2D, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.activation = layer.activation
        self.use_bias = layer.use_bias
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer._padding_amount
        self.filters = layer.filters
        self.weight = params[0]
        self.grad_weight = grads[0]
        self.bias = params[1] if layer.use_bias else None
        self.grad_bias = grads[1] if layer.use_bias else None
        self._bias_row = self.bias[:, None, :] if layer.use_bias else None
        self._cache_columns: Optional[np.ndarray] = None
        self._cache_folded_shape: Optional[Tuple[int, int, int, int]] = None
        self._cache_out_hw: Optional[Tuple[int, int]] = None
        self._cache_act: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        num_workers, batch = x.shape[0], x.shape[1]
        folded = x.reshape((num_workers * batch,) + x.shape[2:])
        columns, (out_h, out_w) = im2col(
            folded, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        fan_in = columns.shape[1]
        stacked = columns.reshape(num_workers, batch * out_h * out_w, fan_in)
        pre = np.matmul(stacked, self.weight)
        if self.use_bias:
            pre += self._bias_row  # fresh matmul output: in-place add is safe
        pre = pre.reshape(num_workers, batch, out_h, out_w, self.filters)
        out = self.activation.forward(pre)
        if training:
            self._cache_columns = stacked
            self._cache_folded_shape = folded.shape
            self._cache_out_hw = (out_h, out_w)
            self._cache_act = pre if self.activation.cache_input else out
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        grad_pre = self.activation.gradient(grad_output, self._cache_act)
        num_workers, batch = grad_pre.shape[0], grad_pre.shape[1]
        out_h, out_w = self._cache_out_hw
        grad_matrix = grad_pre.reshape(num_workers, batch * out_h * out_w, self.filters)
        np.matmul(
            self._cache_columns.transpose(0, 2, 1), grad_matrix, out=self.grad_weight
        )
        if self.use_bias:
            grad_matrix.sum(axis=1, out=self.grad_bias)
        if not need_input_grad:
            return None
        folded = conv_input_gradient(
            grad_pre.reshape((num_workers * batch,) + grad_pre.shape[2:]),
            self.weight,
            self._cache_folded_shape,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return folded.reshape((num_workers, batch) + self._cache_folded_shape[1:])


class BatchedMaxPool2D(BatchedKernel):
    """Max pooling with the worker axis folded into the sample batch."""

    def __init__(self, layer: MaxPool2D, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.pool_size = layer.pool_size
        self.stride = layer.stride
        self._cache_argmax: Optional[np.ndarray] = None
        self._cache_folded_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        num_workers, batch = x.shape[0], x.shape[1]
        folded = x.reshape((num_workers * batch,) + x.shape[2:])
        columns, (out_h, out_w) = im2col(
            folded, self.pool_size, self.pool_size, self.stride, 0
        )
        channels = folded.shape[3]
        patches = columns.reshape(
            columns.shape[0], self.pool_size * self.pool_size, channels
        )
        argmax = patches.argmax(axis=1)
        out = np.take_along_axis(patches, argmax[:, None, :], axis=1)[:, 0, :]
        if training:
            self._cache_argmax = argmax
            self._cache_folded_shape = folded.shape
        return out.reshape(num_workers, batch, out_h, out_w, channels)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        num_workers, batch = grad_output.shape[0], grad_output.shape[1]
        folded = max_pool_backward(
            self._cache_argmax,
            grad_output.reshape((num_workers * batch,) + grad_output.shape[2:]),
            self._cache_folded_shape,
            self.pool_size,
            self.stride,
        )
        return folded.reshape((num_workers, batch) + self._cache_folded_shape[1:])


class BatchedAvgPool2D(BatchedKernel):
    """Average pooling with the worker axis folded into the sample batch."""

    def __init__(self, layer: AvgPool2D, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.pool_size = layer.pool_size
        self.stride = layer.stride
        self._cache_folded_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        num_workers, batch = x.shape[0], x.shape[1]
        folded = x.reshape((num_workers * batch,) + x.shape[2:])
        columns, (out_h, out_w) = im2col(
            folded, self.pool_size, self.pool_size, self.stride, 0
        )
        channels = folded.shape[3]
        patches = columns.reshape(
            columns.shape[0], self.pool_size * self.pool_size, channels
        )
        out = patches.mean(axis=1)
        if training:
            self._cache_folded_shape = folded.shape
        return out.reshape(num_workers, batch, out_h, out_w, channels)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        num_workers, batch = grad_output.shape[0], grad_output.shape[1]
        folded = avg_pool_backward(
            grad_output.reshape((num_workers * batch,) + grad_output.shape[2:]),
            self._cache_folded_shape,
            self.pool_size,
            self.stride,
        )
        return folded.reshape((num_workers, batch) + self._cache_folded_shape[1:])


class BatchedGlobalAvgPool2D(BatchedKernel):
    """Global average pooling: ``(K, B, H, W, C) -> (K, B, C)``."""

    def __init__(self, layer: GlobalAvgPool2D, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self._cache_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._cache_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        height, width = self._cache_shape[2], self._cache_shape[3]
        scale = 1.0 / float(height * width)
        grad = np.broadcast_to(
            grad_output[:, :, None, None, :] * scale, self._cache_shape
        )
        return np.ascontiguousarray(grad)


class BatchedFlatten(BatchedKernel):
    """Flatten all non-(worker, batch) dimensions."""

    def __init__(self, layer: Flatten, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self._cache_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._cache_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._cache_shape)


class BatchedActivation(BatchedKernel):
    """Standalone activation: elementwise, shared with the sequential layer."""

    def __init__(self, layer: Activation, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.activation = layer.activation
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self.activation.forward(x)
        if training:
            self._cache = x if self.activation.cache_input else out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.activation.gradient(grad_output, self._cache)


class BatchedDropout(BatchedKernel):
    """Per-worker inverted dropout replaying each worker's private RNG stream.

    Dropout is RNG-stateful per worker, so the kernel holds every worker's
    own ``Dropout`` layer.  Each training forward draws one ``(B, ...)`` mask
    per *active* row from that worker's stream — the same
    :meth:`~repro.nn.layers.Dropout.sample_mask` call, on the same shape, in
    the same worker order as the sequential engine, so inactive workers
    consume nothing and every stream replays exactly — then applies the
    stacked masks in one vectorized multiply.  Per-worker dropout *rates* may
    differ (each row's mask comes from its own layer); rate-zero rows get an
    exact all-ones mask and no draw, like the sequential fast path.
    """

    needs_worker_layers = True

    def __init__(self, layer: Dropout, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.worker_layers: Optional[List[Dropout]] = None
        self._cache_mask: Optional[np.ndarray] = None

    def bind_worker_layers(self, layers: Sequence[Layer]) -> None:
        self.worker_layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            self._cache_mask = None
            return x
        rows = self.active_rows
        layers = (
            self.worker_layers
            if rows is None
            else [self.worker_layers[int(k)] for k in rows]
        )
        if all(layer.rate == 0.0 for layer in layers):
            self._cache_mask = None
            return x
        sample_shape = x.shape[1:]
        mask = np.empty_like(x)
        for row, layer in enumerate(layers):
            if layer.rate == 0.0:
                mask[row] = 1.0
            else:
                # Same dtype as the sequential path's mask so both engines
                # perform the identical float multiply.
                mask[row] = layer.sample_mask(sample_shape, dtype=x.dtype)
        self._cache_mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            return grad_output
        return grad_output * self._cache_mask


class BatchedBatchNorm(BatchedKernel):
    """Per-worker batch normalization over the stacked tensor.

    Statistics reduce over every axis except the leading worker axis and the
    trailing channel axis, so each worker normalizes over exactly the same
    extent as its sequential layer; running statistics update in place on the
    ``(K, C)`` views into the cluster's buffer matrix.
    """

    def __init__(self, layer: BatchNorm, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.momentum = layer.momentum
        self.epsilon = layer.epsilon
        self.gamma, self.beta = params
        self.grad_gamma, self.grad_beta = grads
        self.running_mean, self.running_var = buffers
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @staticmethod
    def _expand(stat: np.ndarray, ndim: int) -> np.ndarray:
        """Reshape a ``(K, C)`` statistic for broadcasting against ``ndim`` axes."""
        return stat.reshape((stat.shape[0],) + (1,) * (ndim - 2) + (stat.shape[1],))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes = tuple(range(1, x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean[...] = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var[...] = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        normalized = (x - self._expand(mean, x.ndim)) * self._expand(inv_std, x.ndim)
        out = self._expand(self.gamma, x.ndim) * normalized + self._expand(
            self.beta, x.ndim
        )
        if training:
            self._cache = (normalized, inv_std)
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        normalized, inv_std = self._cache
        ndim = grad_output.ndim
        axes = tuple(range(1, ndim - 1))
        self.grad_gamma[...] = (grad_output * normalized).sum(axis=axes)
        self.grad_beta[...] = grad_output.sum(axis=axes)
        if not need_input_grad:
            return None
        grad_normalized = grad_output * self._expand(self.gamma, ndim)
        mean_grad = grad_normalized.mean(axis=axes)
        mean_grad_normalized = (grad_normalized * normalized).mean(axis=axes)
        return self._expand(inv_std, ndim) * (
            grad_normalized
            - self._expand(mean_grad, ndim)
            - normalized * self._expand(mean_grad_normalized, ndim)
        )


#: Exact-type kernel registry; composites/RNG-stateful layers are deliberately
#: absent (see module docstring) and rejected by :func:`unsupported_layers`.
KERNELS: Dict[Type[Layer], Type[BatchedKernel]] = {
    Dense: BatchedDense,
    Conv2D: BatchedConv2D,
    MaxPool2D: BatchedMaxPool2D,
    AvgPool2D: BatchedAvgPool2D,
    GlobalAvgPool2D: BatchedGlobalAvgPool2D,
    Flatten: BatchedFlatten,
    Activation: BatchedActivation,
    BatchNorm: BatchedBatchNorm,
    Dropout: BatchedDropout,
}


def _kernel_class(layer: Layer) -> Optional[Type[BatchedKernel]]:
    # Exact-type lookup, deliberately NOT an MRO walk: a subclass of a
    # supported layer may override forward/backward, and silently running the
    # parent's kernel for it would break engine parity.  Unknown subclasses
    # must hit the loud construction-time rejection instead.
    return KERNELS.get(type(layer))


def unsupported_layers(model: Sequential) -> List[str]:
    """Names of layers in ``model`` that have no batched kernel (empty = OK)."""
    return [
        f"{layer.name} ({type(layer).__name__})"
        for layer in model.layers
        if _kernel_class(layer) is None
    ]


class BatchedModel:
    """The whole cluster's models as one kernel chain over ``(K, B, ...)``.

    ``reference`` supplies the structure (worker 0's model); the plane
    supplies the per-layer stacked parameter/gradient/buffer views.  One
    :meth:`train_batch` performs every worker's forward pass, loss gradient,
    and backward pass; gradients land in the plane's ``(K, d)`` matrix ready
    for a single batched optimizer update.

    ``worker_models`` (one per plane row, in row order) is required when the
    model contains RNG-stateful layers (``Dropout``): their kernels draw from
    each worker's own layer stream.  ``rows`` — an index array naming which
    workers the plane rows currently hold — lets a masked engine run a
    partial-participation pass: row-aware kernels then consume only those
    workers' streams.
    """

    def __init__(
        self,
        reference: Sequential,
        plane: BatchedPlane,
        worker_models: Optional[Sequence[Sequential]] = None,
    ) -> None:
        missing = unsupported_layers(reference)
        if missing:
            raise ShapeError(
                f"model {reference.name!r} has layers without a batched kernel: "
                f"{', '.join(missing)}"
            )
        self.reference = reference
        self.plane = plane
        self.kernels: List[BatchedKernel] = []
        self._row_aware: List[BatchedKernel] = []
        for index, (layer, (params, grads, buffers)) in enumerate(
            zip(reference.layers, plane.layer_views)
        ):
            kernel = _kernel_class(layer)(layer, params, grads, buffers)
            if kernel.needs_worker_layers:
                if worker_models is None:
                    raise ShapeError(
                        f"layer {layer.name!r} ({type(layer).__name__}) keeps "
                        "per-worker RNG state; construct BatchedModel with "
                        "worker_models so its kernel can replay each worker's "
                        "stream"
                    )
                kernel.bind_worker_layers(
                    [model.layers[index] for model in worker_models]
                )
                self._row_aware.append(kernel)
            self.kernels.append(kernel)
        self._trainable = self.kernels[first_trainable(reference.layers):]

    @property
    def num_workers(self) -> int:
        return self.plane.num_workers

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        for kernel in self._row_aware:
            kernel.active_rows = rows
        out = np.asarray(x, dtype=self.plane.param_matrix.dtype)
        for kernel in self.kernels:
            out = kernel.forward(out, training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for kernel in reversed(self.kernels):
            grad = kernel.backward(grad)
        return grad

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Loss,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One stacked forward/backward; returns the per-row losses.

        Gradients are left in the plane's gradient matrix (and, equivalently,
        in every covered worker model's gradient views); like
        :meth:`Sequential.train_batch` it computes no input gradient.
        ``rows`` names the workers the plane rows hold (``None`` = all
        workers in order).
        """
        outputs = self.forward(x, training=True, rows=rows)
        losses, grad = loss.batched_gradient(outputs, y)
        backward_parameters(self._trainable, grad)
        return losses

    def __repr__(self) -> str:
        return f"BatchedModel(K={self.num_workers}, layers={len(self.kernels)})"
