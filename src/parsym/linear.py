"""Free Z-modules on hashable basis keys, and the free-Hopf-algebra kernel
shared by the diagram algebra and NSym.

An element is a finite map key -> nonzero int.  Subclasses fix the basis
product through ``_mul_key`` and its identity word ``unit`` (all products
here send basis elements to single basis elements, so no signs or expansions
appear at this level); a :class:`TensorSquare` multiplies pairs of words
componentwise.  Instances are treated as immutable: operations always build
fresh dicts, and a map's cached image of a basis word may be shared.

Both Hopf algebras are free: in :meth:`FreeHopf.on_generators` Delta of a
word is the product of its generators' cached images, each generator's
built once as the image of a one-generator word; S of a word is taken in
closed form, and both are cached by word.  Maps on elements are linear
extensions (:meth:`LinearCombination.extend`).  One budget, 2^``REGROUPING_CUT_CAP``
terms, bounds the exponential maps: Delta of a word here, S and the
E-basis where each algebra sums over its cuts.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .diagrams import CapExceeded

# 2^19 terms: one per set of cuts in S and E, one per cut choice in Delta
REGROUPING_CUT_CAP = 19


class LinearCombination:
    __slots__ = ("terms",)

    terms: dict
    unit: object

    def __init__(self, terms: dict | Iterable = ()):
        self.terms = _collect({}, terms.items() if isinstance(terms, dict) else terms)

    @classmethod
    def _of(cls, data: dict):
        out = cls.__new__(cls)
        out.terms = data
        return out

    @staticmethod
    def _mul_key(left, right):
        raise TypeError("this element type has no product")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        """The empty word, the unit of the product."""
        return cls.basis(cls.unit)

    @classmethod
    def basis(cls, key):
        return cls({key: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(_collect(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return type(self)()
        return self._of({key: scalar * coeff for key, coeff in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data: dict = {}
        mul = self._mul_key
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = mul(k1, k2)
                value = data.get(key, 0) + c1 * c2
                if value:
                    data[key] = value
                else:
                    del data[key]
        return self._of(data)

    def extend(self, f: Callable, cls: type | None = None):
        """The linear extension of f (basis key -> element of cls, by default
        this element's type) here: f's own image on one basis word, else one dict."""
        cls = cls or type(self)
        if len(self.terms) == 1 and 1 in self.terms.values():
            image = f(next(iter(self.terms)))
            if type(image) is cls:
                return image
        return cls(
            (k, coeff * c)
            for key, coeff in self.terms.items()
            for k, c in f(key).terms.items()
        )

    def coefficient(self, key) -> int:
        return self.terms.get(key, 0)

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}({self.terms!r})"


def _collect(data: dict, items: Iterable) -> dict:
    """Add the (key, coeff) items into data, dropping the keys that sum to 0."""
    for key, coeff in items:
        value = data.get(key, 0) + coeff
        if value:
            data[key] = value
        else:
            data.pop(key, None)
    return data


class TensorSquare(LinearCombination):
    """Pairs of words of ``factor``, multiplied componentwise."""

    factor: type

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.unit = (cls.factor.unit, cls.factor.unit)

    @classmethod
    def _mul_key(cls, left, right):
        mul = cls.factor._mul_key
        return (mul(left[0], right[0]), mul(left[1], right[1]))


class FreeHopf(NamedTuple):
    """A graded connected Hopf algebra, free as an algebra, given by its
    element and tensor-square types and its maps on basis words."""

    name: str
    element: type
    tensor: type
    degree: Callable
    coproduct_word: Callable
    antipode_word: Callable
    basis: Callable
    render: Callable

    def coproduct(self, a: LinearCombination) -> LinearCombination:
        return a.extend(self.coproduct_word, self.tensor)

    def antipode(self, a: LinearCombination) -> LinearCombination:
        return a.extend(self.antipode_word)

    def counit(self, a: LinearCombination) -> int:
        return a.coefficient(self.element.unit)

    def homogeneous_degree(self, a: LinearCombination) -> int:
        """The common degree of a's terms (0 for zero); ValueError if mixed."""
        degrees = {self.degree(key) for key in a.terms}
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop() if degrees else 0

    @classmethod
    def on_generators(cls, factors, coproduct_generator, antipode_word, **fields):
        """The algebra free on the generators that ``factors`` splits a word
        into, each itself a one-generator word: Delta of a generator is
        ``coproduct_generator``'s, Delta of a longer word the product of its
        generators' cached images, refused past 2^REGROUPING_CUT_CAP cut
        choices (the product of their term counts), and ``antipode_word``
        gives S of a word in closed form; one cache policy for both."""
        tensor = fields["tensor"]
        cache = functools.lru_cache(maxsize=1 << 16)

        @cache
        def coproduct_word(word):
            # a one-generator word is built by the generator map, once; a
            # longer word reads its generators' images from this cache
            gens = factors(word)
            legs = list(map(coproduct_word if len(gens) > 1 else coproduct_generator, gens))
            choices = math.prod(len(leg.terms) for leg in legs)
            if choices > 2**REGROUPING_CUT_CAP:
                raise CapExceeded(f"{choices} coproduct cut choices exceed the cap 2^{REGROUPING_CUT_CAP}")
            return functools.reduce(tensor.__mul__, legs) if legs else tensor.one()

        return cls(coproduct_word=coproduct_word, antipode_word=cache(antipode_word), **fields)
