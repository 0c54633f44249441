"""Tests for the module system and concrete layers."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Embedding, LeakyReLU, Linear, Module, ModuleList, ReLU, Sequential
from repro.nn.tensor import Tensor


def _rng():
    return np.random.default_rng(0)


class TestModuleSystem:
    def test_parameter_registration_recursive(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 8, rng=_rng())
                self.fc2 = Linear(8, 2, rng=_rng())

            def forward(self, x):
                return self.fc2(self.fc1(x))

        net = Net()
        names = dict(net.named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_parameters_is_a_fresh_list_each_call(self):
        net = Sequential(Linear(3, 5, rng=_rng()), ReLU(), Linear(5, 2, rng=_rng()))
        first = net.parameters()
        first.clear()
        assert net.parameters() is not net.parameters()
        assert [id(p) for p in net.parameters()] == [id(p) for _, p in net.named_parameters()]
        assert len(net.parameters()) == 4

    def test_parameters_follow_registrations_anywhere_in_the_tree(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 8, rng=_rng())
                self.block = ModuleList([Linear(8, 8, rng=_rng())])

        net = Net()
        walked = [name for name, _ in net.named_parameters()]
        assert len(net.parameters()) == len(walked)  # cached from here on
        # A sub-sub-module registers a parameter, a sub-module gets an
        # attribute parameter, and the root gets a new sub-module: the
        # root's cached list follows each.
        net.block[0].register_parameter("scale", Tensor(np.ones(8)))
        net.fc1.shift = Tensor(np.zeros(8), requires_grad=True)
        net.fc2 = Linear(8, 2, rng=_rng())
        expected = [p for _, p in net.named_parameters()]
        assert len(expected) == len(walked) + 4
        assert [id(p) for p in net.parameters()] == [id(p) for p in expected]
        assert [id(p) for p in net.block.parameters()] == [
            id(p) for _, p in net.block.named_parameters()
        ]

    def test_state_dict_roundtrip(self):
        net = Sequential(Linear(3, 5, rng=_rng()), ReLU(), Linear(5, 2, rng=_rng()))
        state = net.state_dict()
        other = Sequential(Linear(3, 5, rng=np.random.default_rng(99)), ReLU(), Linear(5, 2, rng=np.random.default_rng(98)))
        other.load_state_dict(state)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        np.testing.assert_allclose(net(x).data, other(x).data)

    def test_load_state_dict_strict_mismatch(self):
        net = Linear(3, 2, rng=_rng())
        with pytest.raises(KeyError):
            net.load_state_dict({"weight": net.weight.data}, strict=True)

    def test_load_state_dict_shape_mismatch(self):
        net = Linear(3, 2, rng=_rng())
        bad = {"weight": np.zeros((2, 2)), "bias": np.zeros(2)}
        with pytest.raises(ValueError):
            net.load_state_dict(bad)

    def test_load_state_dict_non_strict_ignores_extra(self):
        net = Linear(3, 2, rng=_rng())
        net.load_state_dict({"weight": np.zeros((3, 2)), "unknown": np.zeros(1)}, strict=False)
        np.testing.assert_array_equal(net.weight.data, np.zeros((3, 2)))

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2, rng=_rng()), Dropout(0.5))
        net.eval()
        assert all(not m.training for m in net.children())
        net.train()
        assert all(m.training for m in net.children())

    def test_zero_grad(self):
        net = Linear(2, 2, rng=_rng())
        net(Tensor(np.ones((1, 2)))).sum().backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None


class TestLinear:
    def test_forward_shape_and_affine(self):
        layer = Linear(4, 3, rng=_rng())
        x = np.random.default_rng(2).normal(size=(5, 4))
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=_rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradients_flow(self):
        layer = Linear(3, 2, rng=_rng())
        out = layer(Tensor(np.ones((4, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 4.0))


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 6, rng=_rng())
        out = emb(np.array([1, 3, 3]))
        assert out.shape == (3, 6)
        np.testing.assert_array_equal(out.data[1], out.data[2])

    def test_out_of_range(self):
        emb = Embedding(4, 2, rng=_rng())
        with pytest.raises(IndexError):
            emb(np.array([4]))

    def test_gradient_accumulates_for_repeated_ids(self):
        emb = Embedding(5, 3, rng=_rng())
        emb(np.array([2, 2, 1])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], np.full(3, 2.0))
        np.testing.assert_allclose(emb.weight.grad[1], np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))


class TestActivationsAndDropout:
    def test_relu_module(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_leaky_relu_module(self):
        out = LeakyReLU(0.1)(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [-0.1, 2.0])

    def test_dropout_respects_mode(self):
        layer = Dropout(0.9, rng=_rng())
        x = Tensor(np.ones((100, 10)))
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, x.data)
        layer.train()
        assert np.mean(layer(x).data == 0.0) > 0.5


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = Sequential(Linear(2, 2, rng=_rng()), ReLU())
        assert len(seq) == 2
        x = Tensor(np.array([[1.0, -1.0]]))
        assert np.all(seq(x).data >= 0)

    def test_module_list_indexing_and_iteration(self):
        layers = ModuleList(Linear(2, 2, rng=_rng()) for _ in range(3))
        assert len(layers) == 3
        assert isinstance(layers[1], Linear)
        assert sum(1 for _ in layers) == 3
        # Parameters of children are discovered through the container.
        assert len(list(layers.parameters())) == 6

    def test_module_list_not_callable(self):
        with pytest.raises(RuntimeError):
            ModuleList([Linear(2, 2, rng=_rng())])()
