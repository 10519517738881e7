"""The sparse arithmetic that path vectors, algebra elements and tensor
squares share: pruning on construction, adoption of an already pruned dict,
and sums and scalar multiples that keep their class and tag."""

import pytest

from pathhopf import AlgebraElement, PathVector, TensorSquare


def test_path_vector_prunes_at_1e_12():
    x = PathVector(1, {(0, 1): 1e-12, (1, 0): 2e-12, (1, 2): -1e-13})
    assert x.coeffs == {(1, 0): 2e-12 + 0j}


@pytest.mark.parametrize("cls", [AlgebraElement, TensorSquare])
def test_graded_elements_prune_at_1e_14(a3, cls):
    key, kept, dropped = ((1, 0, 0), (1, 1, 1)), ((1, 2, 2), (1, 3, 3)), ((0, 0, 0), (0, 1, 1))
    if cls is AlgebraElement:
        key, kept, dropped = key[0], kept[0], dropped[0]
    x = cls(a3, {key: 1e-14, kept: 2e-14, dropped: -1e-15})
    assert x.coeffs == {kept: 2e-14 + 0j}
    # a sum whose terms cancel to dust is pruned too
    assert (x - cls(a3, {kept: 2e-14 - 1e-15})).is_zero()


def test_path_vector_sums_and_multiples_keep_class_and_length():
    x = PathVector(2, {(0, 1, 2): 1.0})
    y = PathVector(2, {(0, 1, 0): 0.5, (0, 1, 2): 1.0})
    for z in (x + y, x - y, 2 * x, x * 2j, -x, y + PathVector(2), PathVector(2) + y):
        assert type(z) is PathVector
        assert z.length == 2
    assert (x + y).coeffs == {(0, 1, 2): 2.0, (0, 1, 0): 0.5}
    assert (x - y).coeffs == {(0, 1, 0): -0.5}
    assert (-x).terms() == [((0, 1, 2), -1.0)]
    assert (3 * y).sup_norm() == 3.0


@pytest.mark.parametrize(
    "cls, key",
    [(AlgebraElement, (1, 0, 1)), (TensorSquare, ((1, 0, 1), (1, 1, 1)))],
)
def test_graded_sums_and_multiples_keep_class_and_space(a3, cls, key):
    x, y = cls(a3, {key: 1.0}), cls(a3, {key: 0.5})
    for z in (x + y, x - y, 2 * x, x * 1j, -x, x + cls(a3), cls(a3) + x):
        assert type(z) is cls
        assert z.space is a3
    assert (x - y).coeffs == {key: 0.5}
    assert (x - x).is_zero()
    assert (-2 * x).sup_norm() == 2.0


@pytest.mark.parametrize("cls", [PathVector, AlgebraElement])
def test_adopt_matches_a_constructed_twin(a3, cls):
    # _adopt takes a dict already in the form __init__ makes (complex values
    # above the class's prune) as it is
    if cls is PathVector:
        tag, keys = 2, [(0, 1, 2), (1, 0, 1), (1, 2, 1)]
    else:
        tag, keys = a3, [(1, 0, 1), (1, 2, 3), (2, 1, 1)]
    coeffs = dict(zip(keys, [1.5 + 0j, -0.25 + 2j, 3e-3j]))
    adopted, twin = cls._adopt(tag, coeffs), cls(tag, dict(coeffs))
    assert type(adopted) is cls
    assert getattr(adopted, cls._tag) is tag
    assert adopted.coeffs is coeffs
    other = cls(tag, {keys[0]: -1.5, keys[2]: 1.0})
    assert adopted.terms() == twin.terms()
    for f in (
        lambda v: v + other, lambda v: other + v, lambda v: v - other,
        lambda v: 2j * v, lambda v: v * 0.5, lambda v: -v, lambda v: v + v,
    ):
        got, want = f(adopted), f(twin)
        assert type(got) is cls and getattr(got, cls._tag) is tag
        assert got.terms() == want.terms()
    assert (adopted - twin).is_zero()
    # the arithmetic builds new instances and leaves the adopted dict alone
    assert coeffs == dict(zip(keys, [1.5 + 0j, -0.25 + 2j, 3e-3j]))


def test_path_vectors_of_different_lengths_do_not_add():
    x, y = PathVector(1, {(0, 1): 1.0}), PathVector(2, {(0, 1, 0): 1.0})
    with pytest.raises(ValueError, match="lengths 1 and 2"):
        x + y
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        y - x
    # the check holds for zero vectors too
    with pytest.raises(ValueError):
        PathVector(1) + PathVector(2)


def test_unlike_classes_do_not_add(a3):
    x = PathVector(1, {(0, 1): 1.0})
    element = AlgebraElement.basis_element(a3, 1, 0, 0)
    square = TensorSquare(a3, {((1, 0, 0), (1, 0, 0)): 1.0})
    for left, right in ((x, element), (element, x), (element, square), (square, element)):
        with pytest.raises(TypeError):
            left + right
