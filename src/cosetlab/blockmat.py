"""Block-partitioned dense matrices, exact permutations, embeddings and norms.

A square matrix of size alpha + m*(k + n_tail) is sliced into a distinguished
``corner`` of size alpha followed by m copies, each split into an ``active``
leading k-block and a ``tail`` of size n_tail.  A permutation matrix is held
as its image word, so symmetric-group arithmetic stays exact; its dense
entries are built only when something reads them.

Every embedding is one placement: an identity with a small block on the rows
and columns of given position sets, a word staying a word.  ``embed`` places
the window on the corner and active points, ``embed_k`` a block on each copy,
and ``build_JN`` is ``embed_k`` of the word swapping active and first k tail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockSpec",
    "BlockMatrix",
    "PermutationWord",
    "as_word",
    "load_source",
    "block",
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
        if self.dim < 1:
            raise ValueError("total dimension must be >= 1")

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

    def block_slice(self, name: str) -> slice:
        """Index range of a named block: 'corner', 'active_i' or 'tail_i' (i is 1-based)."""
        if name == "corner":
            return slice(0, self.alpha)
        kind, _, idx = name.partition("_")
        if kind not in ("active", "tail") or not idx.isdigit():
            raise KeyError(f"unknown block name: {name!r}")
        c = int(idx)
        if not 1 <= c <= self.m:
            raise KeyError(f"block copy index out of range: {name!r}")
        start = self.alpha + (c - 1) * self.copy_size
        if kind == "active":
            return slice(start, start + self.k)
        return slice(start + self.k, start + self.copy_size)


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
    def parse(cls, text: str, degree: int | None = None) -> "PermutationWord":
        """Parse "(1 2)(3 4)" cycle notation or "2,1,3" image-list notation.

        A leading "(" selects cycle notation; "identity" needs an explicit degree.
        """
        text = text.strip()
        if text == "identity":
            if degree is None:
                raise ValueError("'identity' needs an explicit degree")
            return cls.identity(degree)
        if text.startswith("("):
            cycles = []
            for chunk in text.replace(")", ")|").split("|"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                if not (chunk.startswith("(") and chunk.endswith(")")):
                    raise ValueError(f"malformed cycle notation: {text!r}")
                entries = chunk[1:-1].replace(",", " ").split()
                cycles.append([int(e) for e in entries])
            n = degree if degree is not None else max((a for c in cycles for a in c), default=1)
            return cls.from_cycles(n, cycles)
        images = [int(e) for e in text.replace(",", " ").split()]
        word = cls(images)
        if degree is not None and word.degree != degree:
            raise ValueError(f"expected degree {degree}, got {word.degree}")
        return word

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
    """Dense complex square matrix, optionally block-partitioned and/or an exact
    permutation; ``from_permutation`` stores only the word until ``entries`` is read."""

    __slots__ = ("_entries", "spec", "exact_permutation")

    def __init__(self, entries, spec: BlockSpec | None = None,
                 exact_permutation: PermutationWord | None = None):
        entries = np.ascontiguousarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if spec is not None and spec.dim != entries.shape[0]:
            raise ValueError(f"spec dimension {spec.dim} != matrix dimension {entries.shape[0]}")
        if exact_permutation is not None:
            if exact_permutation.degree != entries.shape[0]:
                raise ValueError("permutation degree mismatch")
            if np.abs(entries - exact_permutation.matrix()).max() != 0.0:
                raise ValueError("entries do not match the claimed exact permutation")
        self._entries = entries
        self.spec = spec
        self.exact_permutation = exact_permutation

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = np.ascontiguousarray(self.exact_permutation.matrix(), dtype=complex)
        return self._entries

    @property
    def dim(self) -> int:
        if self.exact_permutation is not None:
            return self.exact_permutation.degree
        return self._entries.shape[0]

    @classmethod
    def identity(cls, dim: int, spec: BlockSpec | None = None) -> "BlockMatrix":
        return cls.from_permutation(PermutationWord.identity(dim), spec)

    @classmethod
    def from_permutation(cls, word: PermutationWord, spec: BlockSpec | None = None) -> "BlockMatrix":
        if spec is not None and spec.dim != word.degree:
            raise ValueError(f"spec dimension {spec.dim} != permutation degree {word.degree}")
        mat = cls.__new__(cls)
        mat._entries = None
        mat.spec = spec
        mat.exact_permutation = word
        return mat

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        spec = self.spec or other.spec
        if self.exact_permutation is not None and other.exact_permutation is not None:
            return BlockMatrix.from_permutation(
                self.exact_permutation * other.exact_permutation, spec)
        return BlockMatrix(self.entries @ other.entries, spec)

    def inverse(self) -> "BlockMatrix":
        if self.exact_permutation is not None:
            return BlockMatrix.from_permutation(self.exact_permutation.inverse(), self.spec)
        return BlockMatrix(np.linalg.inv(self.entries), self.spec)

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
    def from_json_dict(cls, data: dict, spec: BlockSpec | None = None) -> "BlockMatrix":
        if "perm" in data:
            return cls.from_permutation(PermutationWord(data["perm"]), spec)
        entries = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        if entries.shape != (data["dim"], data["dim"]):
            raise ValueError("re/im shape does not match dim")
        return cls(entries, spec)

    def __repr__(self):
        tag = " perm" if self.exact_permutation is not None else ""
        return f"<BlockMatrix dim={self.dim}{tag}>"


def as_word(x) -> PermutationWord:
    """The word of a PermutationWord or of an exact-permutation BlockMatrix."""
    word = x.exact_permutation if isinstance(x, BlockMatrix) else x
    if not isinstance(word, PermutationWord):
        raise ValueError(f"expected an exact permutation, got {x!r}")
    return word


def load_source(source: str, degrees) -> BlockMatrix:
    """Parse a matrix source at one of the allowed degrees (an int or a tuple).

    "identity" and cycle ("(1 2)") or image-list ("2,1") permutations take the
    smallest allowed degree that holds them; text is an image list only when
    it holds nothing but digits, commas and whitespace.  Any other text is the
    path of a matrix JSON file as written by ``to_json_dict``.  Raises
    ValueError naming the source when it is empty, unreadable or of no allowed
    degree.
    """
    degrees = (degrees,) if isinstance(degrees, int) else tuple(sorted(degrees))
    text = source.strip()
    if not text:
        raise ValueError(f"empty matrix source {source!r}")
    if text == "identity":
        return BlockMatrix.identity(degrees[0])
    if text.startswith("(") or all(c.isdigit() or c == "," or c.isspace() for c in text):
        try:
            need = PermutationWord.parse(text).degree
            degree = next((d for d in degrees if d >= need), need)
            mat = BlockMatrix.from_permutation(PermutationWord.parse(text, degree=degree))
        except ValueError as exc:
            raise ValueError(f"bad permutation {source!r}: {exc}") from exc
    else:
        try:
            with open(text) as fh:
                mat = BlockMatrix.from_json_dict(json.load(fh))
        except FileNotFoundError as exc:
            raise ValueError(f"matrix file not found: {source}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix JSON in {source}: {exc}") from exc
    if mat.dim not in degrees:
        raise ValueError(f"{source}: dimension {mat.dim}, expected "
                         + " or ".join(str(d) for d in degrees))
    return mat


def block(mat: BlockMatrix, row_block: str, col_block: str) -> np.ndarray:
    """Copy of the sub-matrix addressed by named row/column blocks."""
    if mat.spec is None:
        raise ValueError("matrix has no block spec")
    return mat.entries[mat.spec.block_slice(row_block), mat.spec.block_slice(col_block)].copy()


def _place(u, size: int, n: int, blocks, spec: BlockSpec | None = None) -> BlockMatrix:
    """The identity of size n with the size x size block u on the rows and
    columns of each position set in ``blocks``: an int s for the run
    s..s+size-1 (placed by slice assignment), or a list of 0-based positions.
    A PermutationWord u, or an exact-permutation BlockMatrix, stays exact."""
    if isinstance(u, BlockMatrix):
        u = u.exact_permutation if u.exact_permutation is not None else u.entries
    if isinstance(u, PermutationWord):
        if u.degree != size:
            raise ValueError(f"expected degree {size}, got {u.degree}")
        im = list(range(1, n + 1))
        for pos in blocks:
            if isinstance(pos, int):
                for j, target in enumerate(u.images):
                    im[pos + j] = pos + target
            else:
                for i, target in zip(pos, u.images):
                    im[i] = pos[target - 1] + 1
        return BlockMatrix.from_permutation(PermutationWord(im), spec)
    u = np.asarray(u)
    if u.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {u.shape}")
    out = np.eye(n, dtype=complex)
    for pos in blocks:
        if isinstance(pos, int):
            out[pos:pos + size, pos:pos + size] = u
        else:
            out[np.ix_(pos, pos)] = u
    return BlockMatrix(out, spec)


def embed(g: BlockMatrix, spec: BlockSpec) -> BlockMatrix:
    """Lift an element of the (alpha + m*k)-dimensional subgroup to full size.

    The corner and active blocks of the result are g's blocks; every tail
    carries the identity, so the result is unitary whenever g is.
    """
    window = list(range(spec.alpha))
    for start in range(spec.alpha, spec.dim, spec.copy_size):
        window.extend(range(start, start + spec.k))
    return _place(g, spec.window, spec.dim, [window], spec)


def embed_k(u, spec: BlockSpec) -> BlockMatrix:
    """Place m identical diagonal copies of u (size k + n_tail) after an identity corner."""
    w, n = spec.copy_size, spec.dim
    return _place(u, w, n, range(spec.alpha, n, w), spec)


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


def is_unitary(mat, tol: float = 1e-10) -> bool:
    """Whether mat is a square matrix with ||mat^H mat - I|| <= tol; False for any other shape."""
    a = mat.entries if isinstance(mat, BlockMatrix) else np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return operator_norm(a.conj().T @ a - np.eye(len(a))) <= tol
