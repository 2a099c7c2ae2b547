"""A minimal Hopf algebra of noncommutative symmetric functions, plus the
morphisms tying it to the partition-diagram algebra.

Basis words are integer compositions (tuples of positive ints); the product
concatenates, and ``FreeHopf.on_generators`` extends Delta on a one-part
word H_n, the full binomial-style sum H_i (x) H_{n-i}, to longer words as
the product of their parts' cached images.  The
antipode sends H_alpha to the signed sum of H_beta over the refinements beta
of reversed alpha, so (-1)^n S(H_n) is the elementary generator E_n.
``nsym_coproduct``, ``nsym_antipode`` and ``nsym_counit`` are ``NSYM``'s
methods; the product is ``a * b``.

Bridges:

* ``phi``  -- embeds H_n as the diagram with n isolated top nodes and one
  bottom block, extended multiplicatively;
* ``chi``  -- projects a diagram word to the composition of bullet-statistic
  values of its tensor factors;
* ``qsym_image`` -- the quasisymmetric shadow on the monomial basis, taken
  through ``chi`` and read off the iterated coproduct, legs folded to degrees.
"""

from __future__ import annotations

import functools
import itertools
import re

from . import hopfcheck
from .algebra import PARSYM, ParSymElement, _factors, h
from .diagrams import CapExceeded, PartitionDiagram, m_statistic, tensor_fold
from .linear import REGROUPING_CUT_CAP, FreeHopf, LinearCombination, TensorSquare
from .sequences import compositions

Composition = tuple[int, ...]

QSYM_CAP = 4

_COMPOSITION_RE = re.compile(r"^\(\s*\)$|^\(\s*[0-9]+(\s*,\s*[0-9]+)*\s*\)$")


def parse_composition(text: str) -> Composition:
    """Parse ``"(3,1,4)"`` (or ``"()"``) into a composition tuple."""
    if not _COMPOSITION_RE.match(text.strip()):
        raise ValueError(f"malformed composition {text!r}")
    inner = text.strip()[1:-1].strip()
    if not inner:
        return ()
    parts = tuple(int(p) for p in inner.split(","))
    if any(p <= 0 for p in parts):
        raise ValueError("composition parts must be positive")
    return parts


def render_composition(alpha: Composition) -> str:
    return "(" + ",".join(str(p) for p in alpha) + ")"


class NSymElement(LinearCombination):
    """Integer linear combination of composition-indexed basis words."""

    unit = ()

    @staticmethod
    def _mul_key(a: Composition, b: Composition) -> Composition:
        return a + b


class NSymTensor(TensorSquare):
    factor = NSymElement


class QSymImage(LinearCombination):
    """Coefficients on the quasisymmetric monomial basis (no product)."""


def nsym_h(alpha: Composition) -> NSymElement:
    return NSymElement.basis(alpha)


def _coproduct_generator(generator: Composition) -> NSymTensor:
    (n,) = generator
    return NSymTensor(
        {(((i,) if i else ()), ((n - i,) if n - i else ())): 1 for i in range(n + 1)}
    )


def _antipode_word(alpha: Composition) -> NSymElement:
    # S(H_ar)...S(H_a1): each refinement concatenates one composition of each part
    n = sum(alpha) - len(alpha)  # inner cuts, one term per set of them
    if n > REGROUPING_CUT_CAP:
        raise CapExceeded(f"{n} refinement cuts exceed the cap {REGROUPING_CUT_CAP} (2^{n} terms)")
    refinements = itertools.product(*map(compositions, reversed(alpha)))
    return NSymElement({sum(b, ()): (-1) ** sum(map(len, b)) for b in refinements})


NSYM = FreeHopf.on_generators(
    lambda alpha: [(part,) for part in alpha],
    _coproduct_generator,
    _antipode_word,
    name="nsym",
    element=NSymElement,
    tensor=NSymTensor,
    degree=sum,
    basis=compositions,
    render=lambda alpha: "H" + render_composition(alpha),
)
nsym_coproduct, nsym_antipode, nsym_counit = NSYM.coproduct, NSYM.antipode, NSYM.counit


def zeta_nsym(a: NSymElement) -> int:
    """Canonical multiplicative character: 1 on H_alpha iff every part of
    alpha equals 1 (the generator value 1 at H_1, 0 at H_n for n >= 2)."""
    return sum(
        coeff for alpha, coeff in a.terms.items() if all(p == 1 for p in alpha)
    )


# ---------------------------------------------------------------------------
# bridges between the two algebras


@functools.lru_cache(maxsize=None)
def phi_generator(n: int) -> PartitionDiagram:
    """Diagram with isolated top nodes and a single full bottom block."""
    if n < 1:
        raise ValueError("n must be positive")
    blocks = [(i,) for i in range(1, n + 1)]
    blocks.append(tuple(-i for i in range(1, n + 1)))
    return PartitionDiagram(n, blocks)


def phi(a: NSymElement) -> ParSymElement:
    """The embedding determined by H_n -> H(phi_generator(n))."""
    return a.extend(lambda alpha: h(tensor_fold(map(phi_generator, alpha))), ParSymElement)


def chi(a: ParSymElement) -> NSymElement:
    """The projection sending a word to the composition of bullet-statistic
    values of its tensor-irreducible factors."""
    return a.extend(
        lambda d: nsym_h(tuple(m_statistic(pi) for pi in _factors(d))), NSymElement
    )


@functools.lru_cache(maxsize=None)
def _qsym_word(alpha: Composition) -> QSymImage:
    # the canonical character is 1 on every H_n, so the coefficient of M_beta
    # is the coefficient sum of the iterated-coproduct terms whose legs have
    # degrees beta: fold each leg but the last to its degree
    if not alpha:
        return QSymImage({(): 1})
    walk = hopfcheck.folded_coproducts(NSYM, nsym_h(alpha), lambda p, leg: p + (sum(leg),), ())
    return QSymImage((p + (sum(y),), c) for pairs in walk for (p, y), c in pairs.terms.items())


def qsym_image(a: ParSymElement | NSymElement) -> QSymImage:
    """Image under the canonical morphism to quasisymmetric functions, as
    monomial-basis coefficients.  Diagram elements are first projected by
    ``chi``; the input must be homogeneous of degree at most ``QSYM_CAP``."""
    if isinstance(a, ParSymElement):
        degree, b = PARSYM.homogeneous_degree(a), chi(a)
    elif isinstance(a, NSymElement):
        degree, b = NSYM.homogeneous_degree(a), a
    else:
        raise TypeError("expected a ParSym or NSym element")
    if degree > QSYM_CAP:
        raise CapExceeded(f"qsym image capped at degree {QSYM_CAP}")
    return b.extend(_qsym_word, QSymImage)


def verify_nsym_hopf_axioms(max_degree: int, seed: int = 20241) -> "hopfcheck.AxiomReport":
    return hopfcheck.verify_axioms(NSYM, max_degree, seed=seed)
