"""Tests for the Sequential model and its flat-parameter views."""

import numpy as np
import pytest

from repro.exceptions import ModelNotBuiltError, ShapeError
from repro.nn.architectures import mlp
from repro.nn.layers import BatchNorm, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential, average_models
from repro.optim.adam import Adam


def tiny_model(seed=0):
    return mlp(4, 3, hidden_units=(6,), seed=seed, name="tiny")


class TestConstructionAndShapes:
    def test_build_sets_shapes(self):
        model = Sequential([Dense(5, activation="relu"), Dense(2)]).build((3,), seed=0)
        assert model.input_shape == (3,)
        assert model.output_shape == (2,)
        assert model.num_parameters == (3 * 5 + 5) + (5 * 2 + 2)

    def test_unbuilt_model_raises(self):
        model = Sequential([Dense(5)])
        with pytest.raises(ModelNotBuiltError):
            model.forward(np.zeros((1, 3)))
        with pytest.raises(ModelNotBuiltError):
            model.get_parameters()

    def test_summary_mentions_every_layer(self):
        model = tiny_model()
        text = model.summary()
        assert "tiny_dense0" in text and "Total trainable parameters" in text

    def test_same_seed_gives_identical_models(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        np.testing.assert_array_equal(a.get_parameters(), b.get_parameters())

    def test_different_seeds_give_different_models(self):
        a, b = tiny_model(seed=1), tiny_model(seed=2)
        assert not np.array_equal(a.get_parameters(), b.get_parameters())


class TestFlatParameterViews:
    def test_round_trip(self):
        model = tiny_model()
        flat = model.get_parameters()
        modified = flat + 1.5
        model.set_parameters(modified)
        np.testing.assert_array_equal(model.get_parameters(), modified)

    def test_set_parameters_rejects_wrong_size(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.set_parameters(np.zeros(model.num_parameters + 1))

    def test_gradients_match_parameter_layout(self):
        model = tiny_model()
        model.train_batch(np.random.default_rng(0).normal(size=(8, 4)), np.zeros(8, dtype=int))
        grads = model.get_gradients()
        assert grads.shape == (model.num_parameters,)
        assert np.any(grads != 0)

    def test_buffers_round_trip(self):
        model = Sequential([Dense(4, activation="relu"), BatchNorm(), Dense(2)]).build((3,), seed=0)
        assert model.num_buffers == 8  # running mean + var of 4 channels
        buffers = model.get_buffers()
        model.set_buffers(buffers + 0.5)
        np.testing.assert_allclose(model.get_buffers(), buffers + 0.5)

    def test_clone_is_independent(self):
        model = tiny_model()
        clone = model.clone()
        clone.set_parameters(clone.get_parameters() * 0.0)
        assert not np.array_equal(model.get_parameters(), clone.get_parameters())

    def test_average_models(self):
        a, b = tiny_model(seed=1), tiny_model(seed=2)
        average = average_models([a, b])
        np.testing.assert_allclose(
            average, (a.get_parameters() + b.get_parameters()) / 2.0
        )


class TestTrainingAndEvaluation:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = mlp(4, 2, hidden_units=(8,), seed=0)
        optimizer = Adam(0.01)
        loss = SoftmaxCrossEntropy()
        initial = model.evaluate(x, y, loss)[0]
        for _ in range(60):
            model.train_batch(x, y, loss)
            model.set_parameters(optimizer.step(model.get_parameters(), model.get_gradients()))
        final_loss, final_accuracy = model.evaluate(x, y, loss)
        assert final_loss < initial
        assert final_accuracy > 0.9

    def test_predict_batches_consistently(self):
        model = tiny_model()
        x = np.random.default_rng(1).normal(size=(30, 4))
        np.testing.assert_allclose(model.predict(x, batch_size=7), model.predict(x, batch_size=30))

    def test_predict_empty_input(self):
        model = tiny_model()
        assert model.predict(np.zeros((0, 4))).shape == (0, 3)

    def test_evaluate_empty_dataset(self):
        model = tiny_model()
        assert model.evaluate(np.zeros((0, 4)), np.zeros(0, dtype=int)) == (0.0, 0.0)

    def test_evaluate_rejects_misaligned_data(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.evaluate(np.zeros((3, 4)), np.zeros(2, dtype=int))


def _models(name, seeds):
    from repro.nn.architectures import vgg_mini

    if name == "vgg_mini":
        return [vgg_mini((8, 8, 1), num_classes=3, scale=0.5, seed=seed) for seed in seeds]
    return [mlp(6, 3, hidden_units=(5, 4), seed=seed) for seed in seeds]


def _inputs(model, batch, rng, workers=None):
    lead = (batch,) if workers is None else (workers, batch)
    x = rng.normal(size=lead + tuple(model.input_shape))
    y = rng.integers(0, 3, size=lead)
    return x, y


class TestTrainBatchSkipsInputGradient:
    """``train_batch`` computes no model input gradient; nothing else changes.

    Its parameter gradients must be bit-identical to a full forward plus the
    public ``backward``, which still returns the input gradient.
    """

    @pytest.mark.parametrize("name", ["vgg_mini", "mlp"])
    def test_sequential_engine(self, name):
        trained, reference = _models(name, [5, 5])
        x, y = _inputs(trained, 4, np.random.default_rng(0))
        loss = SoftmaxCrossEntropy()
        trained.gradients_view()[...] = np.nan
        reference.gradients_view()[...] = np.nan

        trained.train_batch(x, y, loss)
        _, grad = loss.gradient(reference.forward(x, training=True), y)
        grad_input = reference.backward(grad)

        assert grad_input.shape == x.shape
        assert np.all(np.isfinite(grad_input))
        np.testing.assert_array_equal(trained.get_gradients(), reference.get_gradients())

    @pytest.mark.parametrize("name", ["vgg_mini", "mlp"])
    def test_batched_engine(self, name):
        from repro.nn.batched import BatchedModel, BatchedPlane

        models = _models(name, [1, 2, 3])

        def batched():
            params = np.stack([model.get_parameters() for model in models])
            grads = np.full_like(params, np.nan)
            buffers = np.zeros((len(models), models[0].num_buffers))
            return BatchedModel(models[0], BatchedPlane(models[0], params, grads, buffers))

        trained, reference = batched(), batched()
        x, y = _inputs(models[0], 4, np.random.default_rng(1), workers=len(models))
        loss = SoftmaxCrossEntropy()

        trained.train_batch(x, y, loss)
        _, grad = loss.batched_gradient(reference.forward(x, training=True), y)
        grad_input = reference.backward(grad)

        assert grad_input.shape == x.shape
        assert np.all(np.isfinite(trained.plane.grad_matrix))
        np.testing.assert_array_equal(
            trained.plane.grad_matrix, reference.plane.grad_matrix
        )

    def test_leading_parameter_free_layers_are_not_backpropagated(self):
        from repro.nn.layers import Activation

        model = Sequential([Activation("tanh"), Dense(3)]).build((4,), seed=0)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(5, 4)), rng.integers(0, 3, size=5)
        model.layers[0].backward = None  # would raise if called
        model.train_batch(x, y)
        assert np.all(np.isfinite(model.get_gradients()))
