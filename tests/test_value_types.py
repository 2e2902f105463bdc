"""The value types behave as the frozen dataclasses they replace.

Each of ``GRFN``, ``GFN``, ``TriangularGaussian``, ``Interval``,
``GrfnFusion``, ``ProductResult`` and ``LemmaIntermediates`` is built by
keyword, compares equal only to an equal object of its own class, hashes
by value, prints its fields in the dataclass ``repr``, matches its fields
by position, refuses assignment, and survives ``copy``, ``deepcopy`` and
``pickle``.  ``GRFV``, ``GFV`` and ``GrfvFusion`` do the same, except
that, holding arrays, they do not hash.
"""

import copy
import math
import pickle

import pytest

from erfs import GFN, GRFN, GrfnFusion, Interval, ProductResult
from erfs.grfn import LemmaIntermediates, TriangularGaussian
from erfs.grfv import GFV, GRFV, GrfvFusion

INTER = LemmaIntermediates(0.0, 1.0, 0.5, 0.5, 0.0, 1.5)

# (positional build, keyword build, repr)
CASES = {
    "grfn": (lambda: GRFN(1, 2, 3), lambda: GRFN(mu=1.0, sigma2=2.0, h=3.0),
             "GRFN(mu=1.0, sigma2=2.0, h=3.0)"),
    "grfn-vacuous": (lambda: GRFN(5, 3, 0), lambda: GRFN(mu=0.0, sigma2=1.0, h=0.0),
                     "GRFN(mu=0.0, sigma2=1.0, h=0.0)"),
    "grfn-random": (lambda: GRFN(0, 1, math.inf), lambda: GRFN(mu=0.0, sigma2=1.0, h=math.inf),
                    "GRFN(mu=0.0, sigma2=1.0, h=inf)"),
    "gfn": (lambda: GFN(0, 1), lambda: GFN(mode=0.0, precision=1.0),
            "GFN(mu=0.0, sigma2=0.0, h=1.0)"),
    "triangular": (lambda: TriangularGaussian(0, 1, 1.5),
                   lambda: TriangularGaussian(mu=0.0, sigma=1.0, a=1.5),
                   "TriangularGaussian(mu=0.0, sigma=1.0, a=1.5)"),
    "interval": (lambda: Interval(-1, 2), lambda: Interval(lo=-1.0, hi=2.0),
                 "Interval(lo=-1.0, hi=2.0)"),
    "fusion": (lambda: GrfnFusion(GRFN(1, 2, 3), 0.25, INTER),
               lambda: GrfnFusion(combined=GRFN(1.0, 2.0, 3.0), kappa=0.25,
                                  intermediates=LemmaIntermediates(*INTER)),
               "GrfnFusion(combined=GRFN(mu=1.0, sigma2=2.0, h=3.0), kappa=0.25, "
               "intermediates=LemmaIntermediates(mu1=0.0, mu2=1.0, var1=0.5, var2=0.5, "
               "rho=0.0, hbar=1.5))"),
    "product": (lambda: ProductResult(GFN(1, 2), 0.5),
                lambda: ProductResult(product=GFN(1.0, 2.0), height=0.5),
                "ProductResult(product=GFN(mu=1.0, sigma2=0.0, h=2.0), height=0.5)"),
    "intermediates": (lambda: LemmaIntermediates(0.0, 1.0, 0.5, 0.5, 0.0, 1.5),
                      lambda: LemmaIntermediates(mu1=0.0, mu2=1.0, var1=0.5, var2=0.5,
                                                 rho=0.0, hbar=1.5),
                      "LemmaIntermediates(mu1=0.0, mu2=1.0, var1=0.5, var2=0.5, rho=0.0, "
                      "hbar=1.5)"),
}

# a value of the same class that differs in one field
OTHER = {
    "grfn": GRFN(1, 2, 4), "grfn-vacuous": GRFN(0, 1, 1e-300), "grfn-random": GRFN(0, 2, math.inf),
    "gfn": GFN(0, 2), "triangular": TriangularGaussian(0, 1, 1.0), "interval": Interval(-1, 3),
    "fusion": GrfnFusion(GRFN(1, 2, 3), 0.5, INTER), "product": ProductResult(GFN(1, 2), 0.25),
    "intermediates": LemmaIntermediates(0.0, 1.0, 0.5, 0.5, 0.0, 2.0),
}

FIELDS = {
    "grfn": "mu sigma2 h", "grfn-vacuous": "mu sigma2 h", "grfn-random": "mu sigma2 h",
    "gfn": "mu sigma2 h", "triangular": "mu sigma a", "interval": "lo hi",
    "fusion": "combined kappa intermediates", "product": "product height",
    "intermediates": "mu1 mu2 var1 var2 rho hbar",
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param


def test_keyword_build_is_the_positional_build(case):
    positional, keyword, _ = CASES[case]
    assert positional() == keyword()


def test_equal_values_hash_equal(case):
    positional, keyword, _ = CASES[case]
    assert hash(positional()) == hash(keyword())
    assert len({positional(), keyword()}) == 1


def test_unequal_values(case):
    value = CASES[case][0]()
    assert value != OTHER[case] and not value == OTHER[case]


def test_repr(case):
    positional, _, text = CASES[case]
    assert repr(positional()) == text


def test_fields_refuse_assignment_and_deletion(case):
    value = CASES[case][0]()
    for field in FIELDS[case].split():
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert CASES[case][0]() == value


def test_positional_patterns_bind_the_fields(case):
    value = CASES[case][0]()
    assert type(value).__match_args__ == tuple(FIELDS[case].split())


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(case, clone):
    value = CASES[case][0]()
    twin = clone(value)
    assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_classes_never_compare_equal():
    # a GFN is GRFN(mode, 0, precision) by value, but not the same object kind
    assert GFN(0, 1) != GRFN(0, 0, 1) and GRFN(0, 0, 1) != GFN(0, 1)
    assert GRFN(1, 2, 3) != (1.0, 2.0, 3.0) and Interval(0, 1) != (0.0, 1.0)


# The vector types: their fields are arrays, so only p = 1 compares (an array's
# truth value is ambiguous beyond one entry, as in the dataclass), and none hashes.
VECTOR_CASES = {
    "grfv": (lambda: GRFV([1], [[2]], [[3]]),
             lambda: GRFV(mu=[1.0], Sigma=[[2.0]], H=[[3.0]]),
             "GRFV(mu=array([1.]), Sigma=array([[2.]]), H=array([[3.]]))"),
    "gfv": (lambda: GFV([1], [[3]]), lambda: GFV(mode=[1.0], precision=[[3.0]]),
            "GFV(mu=array([1.]), Sigma=array([[0.]]), H=array([[3.]]))"),
    "fusion": (lambda: GrfvFusion(GRFV([1], [[2]], [[3]]), 0.25),
               lambda: GrfvFusion(combined=GRFV([1.0], [[2.0]], [[3.0]]), kappa=0.25),
               "GrfvFusion(combined=GRFV(mu=array([1.]), Sigma=array([[2.]]), "
               "H=array([[3.]])), kappa=0.25)"),
}

VECTOR_OTHER = {"grfv": GRFV([1], [[2]], [[4]]), "gfv": GFV([2], [[3]]),
                "fusion": GrfvFusion(GRFV([1], [[2]], [[3]]), 0.5)}

VECTOR_FIELDS = {"grfv": "mu Sigma H", "gfv": "mu Sigma H", "fusion": "combined kappa"}


@pytest.fixture(params=sorted(VECTOR_CASES))
def vector_case(request):
    return request.param


def test_vector_keyword_build_repr_and_equality(vector_case):
    positional, keyword, text = VECTOR_CASES[vector_case]
    value = positional()
    assert value == keyword() and not value != keyword()
    assert repr(value) == text
    assert value != VECTOR_OTHER[vector_case] and not value == VECTOR_OTHER[vector_case]


def test_vector_values_do_not_hash(vector_case):
    with pytest.raises(TypeError):
        hash(VECTOR_CASES[vector_case][0]())


def test_vector_fields_refuse_assignment_and_deletion(vector_case):
    value = VECTOR_CASES[vector_case][0]()
    for field in VECTOR_FIELDS[vector_case].split():
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert VECTOR_CASES[vector_case][0]() == value


def test_vector_positional_patterns_bind_the_fields(vector_case):
    value = VECTOR_CASES[vector_case][0]()
    assert type(value).__match_args__ == tuple(VECTOR_FIELDS[vector_case].split())


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_vector_copies_are_equal(vector_case, clone):
    value = VECTOR_CASES[vector_case][0]()
    twin = clone(value)
    assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_vector_classes_never_compare_equal():
    # a GFV is GRFV(mode, 0, precision) by value, but not the same object kind
    gfv, grfv = GFV([1], [[3]]), GRFV([1], [[0]], [[3]])
    assert gfv != grfv and grfv != gfv and not gfv == grfv
