"""Block partitions, dense matrices, exact permutations, embeddings and norms.

A family's ``BlockSpec`` slices {1..alpha + m*(k + n_tail)} into a ``corner``
of size alpha followed by m copies, each split into an ``active`` leading
k-block and a ``tail`` of size n_tail.  A ``BlockMatrix`` holds its entries
or, for a permutation matrix, its image word alone, so symmetric-group
arithmetic stays exact; the entries are built only when something reads them.

Every embedding is one placement: an identity with a small block on the rows
and columns of given position lists, a word staying a word.  ``embed`` places
the window on the corner and active points, ``embed_k`` a block on each copy,
and ``build_JN`` is ``embed_k`` of the word swapping active and first k tail.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockSpec",
    "tail_sizes",
    "BlockMatrix",
    "PermutationWord",
    "as_word",
    "load_source",
    "embed",
    "embed_k",
    "build_JN",
    "operator_norm",
    "is_unitary",
]


@dataclass(frozen=True)
class BlockSpec:
    """Partition of {1..dim} into corner | (active_1, tail_1) | ... | (active_m, tail_m)."""

    alpha: int
    k: int
    n_tail: int
    m: int = 1

    def __post_init__(self):
        if self.alpha < 0 or self.n_tail < 0:
            raise ValueError("alpha and n_tail must be nonnegative")
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be positive")

    @property
    def copy_size(self) -> int:
        return self.k + self.n_tail

    @property
    def dim(self) -> int:
        return self.alpha + self.m * self.copy_size

    @property
    def window(self) -> int:
        """Dimension of the embedded subgroup acting on corner + active blocks."""
        return self.alpha + self.m * self.k

    def copy_slice(self, c: int) -> slice:
        # c is 0-based; whole copy (active + tail)
        start = self.alpha + c * self.copy_size
        return slice(start, start + self.copy_size)


def tail_sizes(N_list, k: int = 0) -> tuple:
    """N_list as a tuple of ints, each an integral N with k <= N < 2^1023 - 2^969
    (bools and strings are not integers), the bound under which 2N, the complex
    draw's largest chi-square degrees of freedom, rounds to a finite double.
    Raises ValueError naming the list, or the first N out of range."""
    Ns = list(N_list)
    if not all(isinstance(n, numbers.Real) and not isinstance(n, bool)
               and (isinstance(n, numbers.Integral) or float(n).is_integer()) for n in Ns):
        raise ValueError(f"every N must be an integer; got {Ns}")
    for n in Ns:
        if n < k:
            raise ValueError(f"every N must be >= k; got N={n} < k={k}" if k
                             else f"every N must be >= 0; got N={n}")
        if n >= 2 ** 1023 - 2 ** 969:
            raise ValueError(f"every N must be < 2^1023 - 2^969; got N={n}")
    return tuple(int(n) for n in Ns)


_POINTS = re.compile(r"[0-9,\s]*")  # points: unsigned ASCII decimals, whitespace, commas
_CYCLES = re.compile(rf"(?:\s*\({_POINTS.pattern}\))+\s*")


class PermutationWord:
    """A permutation of {1..n} stored as the tuple of images (1-based)."""

    __slots__ = ("images", "_inverse")

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images
        self._inverse = None

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "PermutationWord":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "PermutationWord":
        """The product of disjoint cycles on 1..n; ValueError names a bad point."""
        im, seen = list(range(1, n + 1)), set()
        for cyc in cycles:
            for i, a in enumerate(cyc):
                if not 1 <= a <= n or a in seen:
                    raise ValueError(f"cycle point {a} repeats or lies outside 1..{n}")
                seen.add(a)
                im[a - 1] = cyc[(i + 1) % len(cyc)]
        return cls(im)

    @classmethod
    def parse(cls, text: str, degree: int) -> "PermutationWord":
        """The permutation of 1..degree that text writes in cycle notation,
        "(1 2)(3 4)", or as an image list, "2,1,3"; a leading "(" selects
        cycles.  Points are unsigned ASCII decimal integers separated by
        whitespace or commas (``_POINTS``).  ValueError on any other text, a
        cycle point outside 1..degree or an image list of another length."""
        if text.lstrip().startswith("("):
            if not _CYCLES.fullmatch(text):
                raise ValueError(f"malformed cycle notation: {text!r}")
            return cls.from_cycles(degree, [[int(e) for e in c.replace(",", " ").split()]
                                            for c in re.findall(r"\(([^)]*)\)", text)])
        if not _POINTS.fullmatch(text):
            raise ValueError(f"points must be unsigned decimal integers: {text!r}")
        images = text.replace(",", " ").split()
        if len(images) != degree:
            raise ValueError(f"expected degree {degree}, got {len(images)}")
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "PermutationWord") -> "PermutationWord":
        # function composition: (self*other)(i) = self(other(i)), matching matrix product
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return PermutationWord(self.images[j - 1] for j in other.images)

    def inverse(self) -> "PermutationWord":
        """The inverse word; built on the first call and kept, as a word never changes."""
        if self._inverse is None:
            out = [0] * self.degree
            for i, v in enumerate(self.images, 1):
                out[v - 1] = i
            inv = PermutationWord.__new__(PermutationWord)  # valid by construction
            inv.images = tuple(out)
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def matrix(self) -> np.ndarray:
        """0-1 matrix P with P @ e_j = e_{images[j]}."""
        n = self.degree
        P = np.zeros((n, n))
        for j, im in enumerate(self.images):
            P[im - 1, j] = 1.0
        return P

    def __eq__(self, other):
        return isinstance(other, PermutationWord) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"PermutationWord({list(self.images)})"


class BlockMatrix:
    """Dense complex square matrix or exact permutation; ``from_permutation``
    stores only the word until ``entries`` is read.  The block partition is
    the family's, not the matrix's.  ``entries`` is a read-only array of the
    matrix's own, so neither its caller nor its readers can change it after
    the finiteness check."""

    __slots__ = ("_entries", "exact_permutation")

    def __init__(self, entries):
        entries = np.array(entries, dtype=complex, order="C")  # a copy, never the caller's array
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.isfinite(entries).all():
            raise ValueError("matrix entries must be finite")
        entries.flags.writeable = False
        self._entries = entries
        self.exact_permutation = None

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            entries = np.ascontiguousarray(self.exact_permutation.matrix(), dtype=complex)
            entries.flags.writeable = False
            self._entries = entries
        return self._entries

    @property
    def dim(self) -> int:
        if self.exact_permutation is not None:
            return self.exact_permutation.degree
        return self._entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "BlockMatrix":
        return cls.from_permutation(PermutationWord.identity(dim))

    @classmethod
    def from_permutation(cls, word: PermutationWord) -> "BlockMatrix":
        mat = cls.__new__(cls)
        mat._entries = None
        mat.exact_permutation = word
        return mat

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.exact_permutation is not None and other.exact_permutation is not None:
            return BlockMatrix.from_permutation(self.exact_permutation * other.exact_permutation)
        return BlockMatrix(self.entries @ other.entries)

    def to_json_dict(self) -> dict:
        """Matrix file format: {"perm": [...]} for exact permutations, else {"dim", "re", "im"}."""
        if self.exact_permutation is not None:
            return {"perm": list(self.exact_permutation.images)}
        return {
            "dim": self.dim,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlockMatrix":
        if "perm" in data:
            if not isinstance(data["perm"], list) or any(type(i) is not int for i in data["perm"]):
                raise ValueError(f"perm must be a list of integers; got {data['perm']!r}")
            return cls.from_permutation(PermutationWord(data["perm"]))
        re, im = (np.asarray(data[part], dtype=float) for part in ("re", "im"))
        if re.shape != (data["dim"], data["dim"]) or im.shape != re.shape:
            raise ValueError("re/im shape does not match dim")
        entries = re.astype(complex)
        entries.imag = im  # no product: 1j * inf would warn and make nan
        return cls(entries)

    def __repr__(self):
        tag = " perm" if self.exact_permutation is not None else ""
        return f"<BlockMatrix dim={self.dim}{tag}>"


def as_word(x) -> PermutationWord:
    """The word of a PermutationWord or of an exact-permutation BlockMatrix."""
    word = x.exact_permutation if isinstance(x, BlockMatrix) else x
    if not isinstance(word, PermutationWord):
        raise ValueError(f"expected an exact permutation, got {x!r}")
    return word


def _read_json(path: str, what: str):
    """The JSON value in the file at path; a ValueError naming the file (as a
    what file) when it is missing, unreadable, not UTF-8 or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValueError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"unreadable {what} file {path}: {exc}") from exc


def load_source(source: str, degrees, draw=None) -> BlockMatrix:
    """Read a matrix source at one of the allowed degrees (an int or a tuple).

    The whole source "identity" is the identity at the smallest allowed
    degree, and "random_unitary" is draw(that degree), or a ValueError when
    no draw is given (only the concentration command draws).  A permutation,
    cycle notation "(1 2)" or an image list "2,1" (nothing but points,
    ``_POINTS``), is read by ``PermutationWord.parse`` at the smallest
    allowed degree that holds it, so no word above the largest is built.
    Any other text is the path of a matrix JSON file as written by
    ``to_json_dict``.  Raises ValueError naming the source when it is
    empty, malformed, unreadable or of no allowed degree.
    """
    degrees = (degrees,) if isinstance(degrees, int) else tuple(sorted(degrees))
    text = source.strip()
    if not text:
        raise ValueError(f"empty matrix source {source!r}")
    if text == "identity":
        return BlockMatrix.identity(degrees[0])
    if text == "random_unitary":
        if draw is None:
            raise ValueError(f"{source!r}: only concentration draws a random source")
        return draw(degrees[0])
    if text.startswith("(") or _POINTS.fullmatch(text):
        for degree in degrees:
            try:
                return BlockMatrix.from_permutation(PermutationWord.parse(text, degree))
            except ValueError as exc:
                error = exc
        raise ValueError(f"bad permutation {source!r}: {error}") from error
    data = _read_json(text, "matrix")
    try:
        mat = BlockMatrix.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON in {text}: {exc}") from exc
    if mat.dim not in degrees:
        raise ValueError(f"{source}: dimension {mat.dim}, expected "
                         + " or ".join(str(d) for d in degrees))
    return mat


def _place(u, size: int, n: int, blocks) -> BlockMatrix:
    """The identity of size n with the size x size block u on the rows and
    columns of each list of size 0-based positions in ``blocks``, in order.
    A PermutationWord u, or an exact-permutation BlockMatrix, stays exact."""
    if isinstance(u, BlockMatrix):
        u = u.exact_permutation if u.exact_permutation is not None else u.entries
    if isinstance(u, PermutationWord):
        if u.degree != size:
            raise ValueError(f"expected degree {size}, got {u.degree}")
        im = list(range(1, n + 1))
        for pos in blocks:
            for i, target in zip(pos, u.images):
                im[i] = pos[target - 1] + 1
        return BlockMatrix.from_permutation(PermutationWord(im))
    u = np.asarray(u)
    if u.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {u.shape}")
    out = np.eye(n, dtype=complex)
    for pos in blocks:
        out[np.ix_(pos, pos)] = u
    return BlockMatrix(out)


def embed(g: BlockMatrix, spec: BlockSpec) -> BlockMatrix:
    """Lift an element of the (alpha + m*k)-dimensional subgroup to full size.

    The corner and active blocks of the result are g's blocks; every tail
    carries the identity, so the result is unitary whenever g is.
    """
    window = list(range(spec.alpha))
    for start in range(spec.alpha, spec.dim, spec.copy_size):
        window.extend(range(start, start + spec.k))
    return _place(g, spec.window, spec.dim, [window])


def embed_k(u, spec: BlockSpec) -> BlockMatrix:
    """Place m identical diagonal copies of u (size k + n_tail) after an identity corner."""
    w, n = spec.copy_size, spec.dim
    return _place(u, w, n, [range(s, s + w) for s in range(spec.alpha, n, w)])


def build_JN(spec: BlockSpec) -> BlockMatrix:
    """Involution swapping each copy's active block with the first k tail slots.

    Requires n_tail >= k so the tail has room for the swap.
    """
    if spec.n_tail < spec.k:
        raise ValueError(f"n_tail={spec.n_tail} < k={spec.k}: tail too short for the block swap")
    swaps = [(j, spec.k + j) for j in range(1, spec.k + 1)]
    return embed_k(PermutationWord.from_cycles(spec.copy_size, swaps), spec)


def operator_norm(mat) -> float:
    """Largest singular value; 0 for an empty matrix."""
    a = mat.entries if isinstance(mat, BlockMatrix) else np.asarray(mat)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


_UNITARY_TOL = 1e-10  # the largest ||mat^H mat - I|| that is_unitary accepts


def is_unitary(mat) -> bool:
    """Whether mat is a square matrix with ||mat^H mat - I|| <= _UNITARY_TOL; False otherwise."""
    a = mat.entries if isinstance(mat, BlockMatrix) else np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return operator_norm(a.conj().T @ a - np.eye(len(a))) <= _UNITARY_TOL
