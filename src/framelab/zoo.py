"""Constructors for the stock frame families used throughout the package.

Every constructor returns a frame whose two axioms hold to machine accuracy
(checkable with ``validate_frame``).  ``FrameSpec`` is the declarative form
used by the command line and by the default catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import (
    COMPLEX,
    REAL,
    FrameError,
    MeasureSpace,
    PSchauderFrame,
    _check_table_guard,
    _gaussian,
    _seeded_rng,
    counting_measure,
)

# Name suffixes of the two frames a pair kind (dft_pair) yields.
PAIR_SUFFIXES = ("canonical", "transform")


def canonical_lp(d: int, p: float, field: str = REAL) -> PSchauderFrame:
    """Coordinate pair in dimension d: identity functionals and vectors,
    counting measure."""
    if d < 1:
        raise FrameError("dimension must be at least 1")
    _check_table_guard(d, d)
    eye = np.eye(d)
    return PSchauderFrame(counting_measure(d), p, eye, eye, field)


def signed_permutation(d: int, p: float, permutation=None, signs=None) -> PSchauderFrame:
    """Isometry-of-coordinates frame: atom i carries ``signs[i] * e_perm[i]``
    as its vector and the conjugate sign on the same coordinate functional.
    The permutation defaults to the identity and the signs to all ones."""
    _check_table_guard(d, d)
    # No dtype yet: an integer beyond the C range must fail the bijection
    # check, not overflow the conversion.
    perm = np.asarray(permutation if permutation is not None else range(d))
    sgn = np.asarray(signs if signs is not None else [1.0] * d)
    if perm.shape != (d,) or sorted(perm.tolist()) != list(range(d)):
        raise FrameError("permutation must be a bijection of 0..d-1")
    perm = perm.astype(int)
    if sgn.shape != (d,):
        raise FrameError("one unimodular sign per atom required")
    if np.any(np.abs(np.abs(sgn) - 1.0) > 1e-12):
        raise FrameError("signs must have modulus 1")
    field = COMPLEX if np.iscomplexobj(sgn) else REAL
    dtype = np.complex128 if field == COMPLEX else np.float64
    vectors = np.zeros((d, d), dtype=dtype)
    functionals = np.zeros((d, d), dtype=dtype)
    vectors[np.arange(d), perm] = sgn
    functionals[np.arange(d), perm] = np.conj(sgn)
    return PSchauderFrame(counting_measure(d), p, functionals, vectors, field)


def dft_pair(d: int) -> tuple[PSchauderFrame, PSchauderFrame]:
    """Canonical complex coordinate frame paired with the unitary discrete
    Fourier frame (atom k is the k-th Fourier column, entries
    ``exp(-2j*pi*j*k/d)/sqrt(d)``); cross-coherence is 1/sqrt(d)."""
    first = canonical_lp(d, 2.0, COMPLEX)
    j = np.arange(d)
    vectors = np.exp(-2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
    second = PSchauderFrame(counting_measure(d), 2.0, np.conj(vectors), vectors, COMPLEX)
    return first, second


def harmonic_discretization(d: int, N: int, normalize: bool = False) -> PSchauderFrame:
    """Exponential curve t -> (exp(2j*pi*j*t))_{j<d} on [0, 1), sampled at
    t_k = k/N with weights 1/N.

    Exact for N >= d by root-of-unity orthogonality; smaller N would break
    the norm identity and is refused.  With ``normalize`` the atoms are
    rescaled to unit length and the weights to d/N, which leaves both axioms
    exact.
    """
    if N < d:
        raise FrameError(f"N must be >= d (got N={N}, d={d})")
    if d < 1:
        raise FrameError("dimension must be at least 1")
    _check_table_guard(N, d)
    k = np.arange(N)
    vectors = np.exp(2j * np.pi * np.outer(k, np.arange(d)) / N)
    weights = np.full(N, 1.0 / N)
    if normalize:
        vectors = vectors / np.sqrt(d)
        weights = np.full(N, d / N)
    return PSchauderFrame(MeasureSpace(weights), 2.0, np.conj(vectors), vectors, COMPLEX)


def random_parseval(d: int, n: int, seed: int = 0, field: str = REAL) -> PSchauderFrame:
    """Rows of an n x d matrix with orthonormal columns, counting measure.

    Columns come from deterministic Gram-Schmidt on a seeded Gaussian
    matrix, so a fixed seed reproduces the frame bit-for-bit.
    """
    if n < d:
        raise FrameError("need at least as many atoms as dimensions")
    if d < 1:
        raise FrameError("dimension must be at least 1")
    _check_table_guard(n, d)
    raw = _gaussian(_seeded_rng(seed), (n, d), field)
    q = np.zeros_like(raw)
    for col in range(d):
        v = raw[:, col].copy()
        for prev in range(col):
            v -= (np.conj(q[:, prev]) @ v) * q[:, prev]
        norm = np.linalg.norm(v)
        if norm < 1e-10:
            raise FrameError("seeded matrix was numerically rank deficient")
        q[:, col] = v / norm
    return PSchauderFrame(counting_measure(n), 2.0, np.conj(q), q, field)


def mercedes_benz() -> PSchauderFrame:
    """Three equiangular atoms in the plane, each of squared length 2/3;
    the classic redundant tight family for dimension 2."""
    k = np.arange(3)
    angles = 2 * np.pi * k / 3 + np.pi / 2
    vectors = np.sqrt(2.0 / 3.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return PSchauderFrame(counting_measure(3), 2.0, vectors, vectors, REAL)


def alternate_dual(frame: PSchauderFrame, seed: int = 0, scale: float = 1.0) -> PSchauderFrame:
    """Replace the vector family by another dual of the same functionals.

    The input must be a redundant norm-preserving pair (p = 2, more atoms
    than dimensions, functionals equal to the conjugated vectors).  The new
    vectors are ``old + perturbation`` where the perturbation rows are a
    seeded random element of the kernel of weighted synthesis, so
    reconstruction is untouched while the vector family itself generally
    stops being norm-preserving.  ``scale = 0`` returns the input frame.
    An (n, n) SVD factor beyond ``VALIDATION_GUARD`` scalars is refused last.
    """
    if frame.p != 2.0:
        raise FrameError("alternate duals are built for p = 2 only")
    n, d = frame.n_atoms, frame.dimension
    if n <= d:
        raise FrameError("no nontrivial dual exists without redundancy (need n > d)")
    if not np.allclose(frame.functionals, np.conj(frame.vectors), atol=1e-12):
        raise FrameError("input must pair each vector with its conjugate functional")
    f = frame.functionals
    if np.max(np.abs(f.conj().T @ (frame.space.weights[:, None] * f) - np.eye(d))) > 1e-8:
        raise FrameError("input vector family is not norm-preserving")
    _check_table_guard(n, n)

    # Kernel of weighted synthesis: columns u with functionals^T W u = 0.
    a = f.T * frame.space.weights
    _, _, vh = np.linalg.svd(a)
    null_basis = vh[d:].conj().T                           # (n, n-d)
    mix = _gaussian(_seeded_rng(seed), (n - d, d), frame.field)
    perturbation = scale * (null_basis @ mix)
    return PSchauderFrame(
        frame.space, frame.p, frame.functionals, frame.vectors + perturbation, frame.field
    )


def weighted_split(frame: PSchauderFrame, atom: int, parts: int = 2) -> PSchauderFrame:
    """Replace one atom by ``parts`` copies sharing its functional and vector,
    each carrying weight/parts.

    The last copy absorbs the division remainder so the copies sum to the
    original weight bit-exactly, keeping both axioms and every support
    measure unchanged.
    """
    n = frame.n_atoms
    if not 0 <= atom < n:
        raise FrameError(f"atom index {atom} out of range for {n} atoms")
    if parts < 2:
        raise FrameError("parts must be at least 2")
    _check_table_guard(n - 1 + parts, frame.dimension)
    w = frame.space.weights
    share = w[atom] / parts
    copies = np.full(parts, share)
    copies[-1] = w[atom] - (parts - 1) * share
    weights = np.concatenate([w[:atom], copies, w[atom + 1 :]])

    def expand(table: np.ndarray) -> np.ndarray:
        row = table[atom : atom + 1]
        return np.concatenate([table[:atom], np.repeat(row, parts, axis=0), table[atom + 1 :]])

    return PSchauderFrame(
        MeasureSpace(weights), frame.p, expand(frame.functionals), expand(frame.vectors), frame.field
    )


def picket_fence(d: int) -> np.ndarray:
    """Spike train with period sqrt(d): entry j is 1 when sqrt(d) divides j.

    Requires d to be a perfect square of at least 1; this vector attains
    equality of the support-product bound against the Fourier pair.
    Refuses d beyond ``VALIDATION_GUARD`` before allocating.
    """
    if d < 1:
        raise FrameError("dimension must be at least 1")
    m = int(np.sqrt(d))
    if m * m != d:
        raise FrameError("picket fence needs a perfect-square dimension")
    _check_table_guard(1, d)
    x = np.zeros(d)
    x[::m] = 1.0
    return x


@dataclass(frozen=True)
class FrameSpec:
    """Declarative recipe for one zoo constructor.

    ``base`` supplies the input frame for the derived kinds (alternate_dual,
    weighted_split) when no explicit frame is passed to ``build_frames``.
    """

    kind: str
    d: int | None = None
    N: int | None = None
    n: int | None = None
    p: float = 2.0
    seed: int = 0
    field: str = REAL
    permutation: tuple[int, ...] | None = None
    signs: tuple[complex, ...] | None = None
    split_index: int = 0
    split_count: int = 2
    normalize: bool = False
    scale: float = 1.0
    base: "FrameSpec | None" = None


# Kind -> (FrameSpec fields it requires, constructor over (spec, base_frame)),
# in catalogue order.  A constructor returns one frame or a pair; a kind that
# requires ``base`` (``DERIVED_KINDS``) is derived from an input frame.
_KINDS = {
    "canonical_lp": (("d",), lambda s, b: canonical_lp(s.d, s.p, s.field)),
    "signed_permutation": (("d",), lambda s, b: signed_permutation(s.d, s.p, s.permutation, s.signs)),
    "dft_pair": (("d",), lambda s, b: dft_pair(s.d)),
    "random_parseval": (("d", "n"), lambda s, b: random_parseval(s.d, s.n, s.seed, s.field)),
    "harmonic_discretization": (("d", "N"), lambda s, b: harmonic_discretization(s.d, s.N, s.normalize)),
    "alternate_dual": (("base",), lambda s, b: alternate_dual(b, s.seed, s.scale)),
    "weighted_split": (("base",), lambda s, b: weighted_split(b, s.split_index, s.split_count)),
    "mercedes_benz": ((), lambda s, b: mercedes_benz()),
}
FRAME_KINDS = tuple(_KINDS)
DERIVED_KINDS = frozenset(kind for kind, (required, _) in _KINDS.items() if "base" in required)


def build_frames(spec: FrameSpec, base_frame: PSchauderFrame | None = None) -> tuple[PSchauderFrame, ...]:
    """Materialize a spec; returns one frame, or two for ``dft_pair``."""
    if spec.kind not in _KINDS:
        raise FrameError(f"unknown frame kind {spec.kind!r}")
    required, construct = _KINDS[spec.kind]
    for name in required:
        if getattr(spec, name) is None and not (name == "base" and base_frame is not None):
            raise FrameError(f"kind {spec.kind!r} requires parameter {name!r}")
    if "base" in required and base_frame is None:
        base_frame = build_frames(spec.base)[0]
    frames = construct(spec, base_frame)
    return frames if isinstance(frames, tuple) else (frames,)


def named_frames(
    name: str, spec: FrameSpec, base_frame: PSchauderFrame | None = None
) -> list[tuple[str, PSchauderFrame]]:
    """``build_frames`` named ``name``, or ``name_<suffix>`` over ``PAIR_SUFFIXES`` for a pair."""
    frames = build_frames(spec, base_frame)
    if len(frames) == 1:
        return [(name, frames[0])]
    return [(f"{name}_{suffix}", frame) for suffix, frame in zip(PAIR_SUFFIXES, frames)]


def default_specs() -> list[tuple[str, FrameSpec]]:
    """Named catalog covering p in {1.5, 2, 3}, real and complex fields,
    counting and non-uniform measures."""
    mercedes = FrameSpec("mercedes_benz")
    harmonic48 = FrameSpec("harmonic_discretization", d=4, N=8)
    cycle = (1, 2, 0)
    flips = (1.0, -1.0, 1.0)
    return [
        ("canonical_d2_p2", FrameSpec("canonical_lp", d=2, p=2.0)),
        ("canonical_d3_p15", FrameSpec("canonical_lp", d=3, p=1.5)),
        ("canonical_d3_p2", FrameSpec("canonical_lp", d=3, p=2.0)),
        ("canonical_d3_p3", FrameSpec("canonical_lp", d=3, p=3.0)),
        ("cycle_d3_p15", FrameSpec("signed_permutation", d=3, p=1.5, permutation=cycle, signs=flips)),
        ("cycle_d3_p2", FrameSpec("signed_permutation", d=3, p=2.0, permutation=cycle, signs=flips)),
        ("cycle_d3_p3", FrameSpec("signed_permutation", d=3, p=3.0, permutation=cycle, signs=flips)),
        (
            "split_canonical_d3_p15",
            FrameSpec("weighted_split", split_index=0, split_count=2, base=FrameSpec("canonical_lp", d=3, p=1.5)),
        ),
        (
            "split_canonical_d3_p3",
            FrameSpec("weighted_split", split_index=1, split_count=2, base=FrameSpec("canonical_lp", d=3, p=3.0)),
        ),
        ("random_parseval_d3_n5", FrameSpec("random_parseval", d=3, n=5, seed=7)),
        ("random_parseval_d2_n4", FrameSpec("random_parseval", d=2, n=4, seed=3)),
        ("mercedes", mercedes),
        ("mercedes_dual", FrameSpec("alternate_dual", seed=11, base=mercedes)),
        ("split_mercedes", FrameSpec("weighted_split", split_index=0, split_count=2, base=mercedes)),
        ("dft_d4", FrameSpec("dft_pair", d=4)),
        ("harmonic_d4_n8", harmonic48),
        ("split_harmonic_d4", FrameSpec("weighted_split", split_index=0, split_count=2, base=harmonic48)),
        ("dft_d16", FrameSpec("dft_pair", d=16)),
    ]


def default_zoo() -> list[tuple[str, PSchauderFrame]]:
    """Catalog specs materialized to named frames (dft_pair yields two)."""
    return [named for name, spec in default_specs() for named in named_frames(name, spec)]
