"""Job lists, seeded inputs and output checks of the parsym benchmark.

Nothing here imports parsym.  The ``words`` inputs and every expected value
are built by small independent routines below, so the checks do not trust
the library they check, and input generation never warms the library's
caches.

A job is a dict with an ``id``, a ``kind`` and optionally ``samples``, the
number of times an untraced pass runs it (1 when absent):

* ``cli``     -- ``parsym <argv>`` run through ``parsym.cli.main``;
* ``lib``     -- one library call, named by ``call`` with ``args``;
* ``session`` -- many ``cli`` ops in one interpreter (the ``words`` workload).
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("enumerate", "verify", "words")
DEFAULT_SEED = 1

ENUMERATE_ORDER = 5
ENUMERATE_TERMS = 5
SEQUENCE_TERMS = 18

VERIFY_DEGREE = 4
NSYM_VERIFY_DEGREE = 6
# every closure family whose cap reaches degree 4 (planar stops at 3)
CLOSURE_FAMILIES = (
    "permutation",
    "matching",
    "perfect-matching",
    "partial-permutation",
    "planar-perfect-matching",
    "planar-matching",
    "planar-partial-permutation",
)
FORMULA_FAMILY_COUNT = 5
# a closure job takes 0.05-0.2 s, so an untraced pass runs it this many
# times: few samples of a short job spread widely between runs on a shared
# host, and the closure jobs set the median op time
CLOSURE_SAMPLES = 2

# 200 ops, so that 10 op times lie beyond their 95th percentile; a pass
# takes about 2 s, so a run times every op 15 times or more
WORD_COUNT = 50
WORD_OPS = ("coproduct", "antipode", "e-expand", "chi")
MAX_BULLET_FACTORS = 11
# orders of successive pieces in a word, cycled from a slot-dependent offset
PIECE_ORDERS = (1, 3, 2, 3, 3, 2, 3, 3)


def jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of ``workload`` at ``seed``."""
    if workload == "enumerate":
        return [
            _cli("count-irreducible", "count", "--order", str(ENUMERATE_ORDER), "--irreducible"),
            _cli("verify-counts", "verify", "counts", "--terms", str(ENUMERATE_TERMS)),
            _cli("seq-a", "seq", "a", "--terms", str(SEQUENCE_TERMS)),
        ]
    if workload == "verify":
        return [
            {"id": "hopf-axioms", "kind": "lib", "call": "verify_hopf_axioms", "args": [VERIFY_DEGREE, seed]},
            {"id": "e-h-matrix", "kind": "lib", "call": "e_h_matrix", "args": [VERIFY_DEGREE]},
            *[
                {
                    **_cli(f"closure-{f}", "verify", "closure", "--max-degree", str(VERIFY_DEGREE), "--family", f),
                    "samples": CLOSURE_SAMPLES,
                }
                for f in CLOSURE_FAMILIES
            ],
            {"id": "nsym-axioms", "kind": "lib", "call": "verify_nsym_hopf_axioms", "args": [NSYM_VERIFY_DEGREE, seed]},
        ]
    if workload == "words":
        ops = []
        for i, word in enumerate(random_words(seed)):
            # the term whose coefficient the check knows: S(c1 ⊗ ... ⊗ ck)
            # holds ck ⊗ ... ⊗ c1 once, and the E-expansion holds the word
            probes = {"antipode": word["reversed"], "e-expand": word["text"]}
            for verb in WORD_OPS:
                op = {"id": f"w{i:03d}.{verb}", "argv": ["op", verb, word["text"]], "chains": word["chains"], "orders": word["orders"]}
                if verb in probes:
                    op["probe"] = probes[verb]
                if verb == "coproduct":
                    op["terms"] = word["coproduct_terms"]
                ops.append(op)
        return [{"id": "session", "kind": "session", "ops": ops}]
    raise ValueError(f"unknown workload {workload!r}")


def _cli(job_id: str, *argv: str) -> dict:
    return {"id": job_id, "kind": "cli", "argv": list(argv)}


# ---------------------------------------------------------------------------
# independent diagram arithmetic (nodes: top i as +i, bottom i' as -i)


def _set_partitions(n: int):
    """Every set partition of range(n), as restricted growth strings."""
    rgs = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield list(rgs)
            return
        for label in range(used + 1):
            rgs[i] = label
            yield from rec(i + 1, used + (label == used))

    yield from rec(0, 0)


def _diagrams(k: int) -> list[list[list[int]]]:
    nodes = list(range(1, k + 1)) + [-i for i in range(1, k + 1)]
    out = []
    for rgs in _set_partitions(2 * k):
        blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for node, label in zip(nodes, rgs):
            blocks[label].append(node)
        out.append(blocks)
    return out


def _crossings(k: int, blocks) -> list[int]:
    counts = [0] * (k + 1)
    for block in blocks:
        cols = [abs(v) for v in block]
        for i in range(min(cols), max(cols)):
            counts[i] += 1
    return counts


def _tensor_irreducible(k: int, blocks) -> bool:
    counts = _crossings(k, blocks)
    return all(counts[i] for i in range(1, k))


def _bullet_irreducible(k: int, blocks) -> bool:
    counts = _crossings(k, blocks)
    owner = {-v: n for n, block in enumerate(blocks) for v in block if v < 0}
    return not any(owner[i] == owner[i + 1] and counts[i] == 1 for i in range(1, k))


def _tensor(a, b):
    (ka, ba), (kb, bb) = a, b
    shifted = [[v + ka if v > 0 else v - ka for v in block] for block in bb]
    return ka + kb, [list(block) for block in ba] + shifted


def _bullet(a, b):
    k, blocks = _tensor(a, b)
    inner = (-a[0], -(a[0] + 1))
    merged = [v for block in blocks if inner[0] in block or inner[1] in block for v in block]
    rest = [block for block in blocks if inner[0] not in block and inner[1] not in block]
    return k, rest + [merged]


def render(diagram) -> str:
    """Canonical text, sorted as parsym sorts it: top row first."""
    k, blocks = diagram
    if k == 0:
        return "()"

    def key(v: int):
        return (v < 0, abs(v))

    canonical = sorted((sorted(block, key=key) for block in blocks), key=lambda b: key(b[0]))
    return "/".join(",".join(str(v) if v > 0 else f"{-v}'" for v in block) for block in canonical)


def _pieces(max_order: int = 3) -> dict[int, list]:
    """Diagrams that are both tensor- and bullet-irreducible, by order."""
    return {
        k: [(k, b) for b in _diagrams(k) if _tensor_irreducible(k, b) and _bullet_irreducible(k, b)]
        for k in range(1, max_order + 1)
    }


# Word shapes repeat identically for every seed: slot i always has the same
# number of bullet factors, the same split into chains and the same multiset
# of piece orders.  The seed picks the pieces and their order inside the
# word, and shuffles the session, so the cost of a pass barely moves with the
# seed while the inputs, and hence the cache contents, differ.
def _shape(i: int) -> tuple[list[int], list[int]]:
    factors = 1 + (i * 7) % MAX_BULLET_FACTORS
    chains = min(factors, 1 + i % 3)
    sizes = [factors // chains + (1 if c < factors % chains else 0) for c in range(chains)]
    orders = [PIECE_ORDERS[(i + j) % len(PIECE_ORDERS)] for j in range(factors)]
    return sizes, orders


def _bullets(pieces: list) -> tuple:
    """The bullet product of ``pieces`` in order; the empty diagram if none."""
    out = (0, [])
    for piece in pieces:
        out = piece if out[0] == 0 else _bullet(out, piece)
    return out


def _coproduct_terms(chains: list[list]) -> int:
    """Distinct terms of the coproduct of the tensor product of ``chains``.

    Cutting each chain after its first j pieces gives the term
    (prefixes) ⊗ (suffixes); there are prod(m + 1) cuts, but two cuts give
    the same term when the word holds two equal chains, and then the
    program rightly merges them into one term with coefficient 2."""
    terms = set()
    for cut in itertools.product(*(range(len(c) + 1) for c in chains)):
        left = right = (0, [])
        for chain, j in zip(chains, cut):
            left = _tensor(left, _bullets(chain[:j]))
            right = _tensor(right, _bullets(chain[j:]))
        terms.add((render(left), render(right)))
    return len(terms)


def random_words(seed: int) -> list[dict]:
    """``WORD_COUNT`` words, each a tensor product of bullet chains of
    irreducible pieces of order 1-3, with known bullet statistics."""
    rng = random.Random(seed)
    pieces = _pieces()
    words = []
    for i in range(WORD_COUNT):
        sizes, orders = _shape(i)
        orders = list(orders)
        rng.shuffle(orders)
        chains = []
        pos = 0
        for size in sizes:
            chains.append([rng.choice(pieces[order]) for order in orders[pos : pos + size]])
            pos += size
        word = reversed_word = (0, [])
        for chain in chains:
            word = _tensor(word, _bullets(chain))
            reversed_word = _tensor(_bullets(chain), reversed_word)
        words.append(
            {
                "text": render(word),
                "reversed": render(reversed_word),
                "chains": sizes,
                "orders": [_bullets(c)[0] for c in chains],
                "coproduct_terms": _coproduct_terms(chains),
            }
        )
    rng.shuffle(words)
    return words


# ---------------------------------------------------------------------------
# independent integer sequences


def bell_numbers(n: int) -> list[int]:
    """B_0 .. B_n by the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        out.append(row[0])
    return out


def irreducible_counts(n: int) -> list[int]:
    """The Boolean transform of B_2, B_4, ..., B_2n."""
    bell = bell_numbers(2 * n)
    terms = [bell[2 * i] for i in range(1, n + 1)]
    out: list[int] = []
    for m in range(1, n + 1):
        out.append(terms[m - 1] - sum(out[j - 1] * terms[m - j - 1] for j in range(1, m)))
    return out


# ---------------------------------------------------------------------------
# output checks


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _expected_text(job: dict) -> str | None:
    if job["id"] == "count-irreducible":
        return f"{irreducible_counts(ENUMERATE_ORDER)[-1]}\n"
    if job["id"] == "seq-a":
        return "".join(f"{v}\n" for v in irreducible_counts(SEQUENCE_TERMS))
    if job["id"].startswith("closure-"):
        return f"{job['id'][8:]}: PASS (degrees 1..{VERIFY_DEGREE})\n"
    return None


def check_output(job: dict, out: dict) -> str | None:
    """None when the output of ``job`` (or of one session op) is right,
    otherwise a one-line reason."""
    if out.get("raised"):
        return f"raised {out['raised']}"
    if out["rc"] != 0:
        return f"exit code {out['rc']}"
    text = out["text"]
    if job.get("kind") == "lib" and job["call"] == "e_h_matrix":
        det = text.splitlines()[0]
        return None if det in ("determinant 1", "determinant -1") else f"not unimodular: {det}"
    if job.get("kind") == "lib" or job["id"] == "verify-counts":
        lines = text.splitlines()
        want = FORMULA_FAMILY_COUNT if job["id"] == "verify-counts" else None
        if not lines or any(": PASS" not in line for line in lines) or (want and len(lines) != want):
            return "a check did not pass"
        return None
    expected = _expected_text(job)
    if expected is not None:
        return None if text == expected else f"unexpected output {text[:80]!r}"
    verb = job["argv"][1]
    m = job["chains"]
    if verb == "chi":
        want = "1 (" + ",".join(map(str, m)) + ")\n"
        return None if text == want else f"chi {text[:80]!r} != {want!r}"
    if verb == "coproduct":
        # one term per cut of each chain, fewer when cuts coincide
        want = {"terms": job["terms"], "coeff_sum": _prod(x + 1 for x in m)}
    else:
        # signed regroupings: 2^(m-1) per chain of m factors, each regrouping
        # into j parts signed (-1)^j, and (-1)^order more in the E-expansion
        degree_signs = [(-1) ** k if verb == "e-expand" else 1 for k in job["orders"]]
        want = {
            "terms": _prod(2 ** (x - 1) for x in m),
            "coeff_sum": _prod(s * (-1 if x == 1 else 0) for x, s in zip(m, degree_signs)),
            "probe_coeff": _prod(-s for s in degree_signs),
        }
    for key, value in want.items():
        if out[key] != value:
            return f"{verb} {key} {out[key]} != {value}"
    return None
