"""Seeded inputs, operations and correctness gates of the four workloads.

Every input is generated here with the benchmark's own numpy code from the
workload seed and written to a work directory; effectkit only ever sees the
generated files and argv. One operation is a list of CLI argv lists run in
order (one call, or the six calls of a qubit session). ``Workload.check``
judges the stdout bytes of one operation and returns ``None`` when every
gate passes, else a one-line reason.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("tomography", "ks-unsat", "ks-sat", "qubit-session")

TOMO_TOL = 1e-8
BORN_TOL = 1e-12
MU_TOL = 1e-12
SHOTS = 10_000


@dataclass
class Workload:
    steps: list[list[str]]
    check: Callable[[list[bytes]], str | None]
    facts: dict = field(default_factory=dict)


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def _matrix_json(arr: np.ndarray) -> dict:
    return {"dim": int(arr.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]}


def _matrix_from_json(obj: dict) -> np.ndarray:
    d = obj["dim"]
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(d, d)


def _effects_json(dim: int, effects: list[tuple[str, np.ndarray]]) -> dict:
    return {"dim": dim, "effects": [{"label": label, "op": _matrix_json(arr)}
                                    for label, arr in effects]}


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim))
            + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(dim, rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def vectorize(ops: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates of a stack of Hermitian matrices.

    Diagonal entries, then sqrt(2)*Re and sqrt(2)*Im of the upper triangle:
    the frame's design matrix without effectkit's basis tensor.
    """
    d = ops.shape[-1]
    iu = np.triu_indices(d, 1)
    diag = np.diagonal(ops, axis1=-2, axis2=-1).real
    upper = ops[..., iu[0], iu[1]]
    return np.concatenate(
        [diag, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1)


# ---------------------------------------------------------------- tomography

def tomography(seed: int, work: Path, dim: int = 16) -> Workload:
    rng = np.random.default_rng(seed)
    k = dim * dim + 3
    g = _ginibre(dim, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    frame = []
    for i in range(k):
        u = _haar(dim, rng)
        frame.append((f"F{i}", (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T))
    ops = np.array([arr for _, arr in frame])
    rank = int(np.linalg.matrix_rank(vectorize(ops)))
    if rank != dim * dim:
        raise RuntimeError(f"seeded frame has rank {rank}, not {dim * dim}")
    values = np.einsum("ij,kji->k", rho, ops).real
    _dump(work / "frame.json", _effects_json(dim, frame))
    _dump(work / "values.json", {"dim": dim, "entries": [
        {"label": label, "value": float(v)} for (label, _), v in zip(frame, values)]})

    def check(outs: list[bytes]) -> str | None:
        out = json.loads(outs[0])
        err = float(np.linalg.norm(_matrix_from_json(out["state"]) - rho))
        if err > TOMO_TOL:
            return f"Frobenius error {err:.3e} > {TOMO_TOL:g}"
        if out["diagnostics"]["rank"] != dim * dim:
            return f"rank {out['diagnostics']['rank']} != {dim * dim}"
        return None

    steps = [["reconstruct", str(work / "frame.json"), str(work / "values.json"),
              "--project-psd"]]
    return Workload(steps, check,
                    {"dim": dim, "frame_size": k, "frame_rank": rank,
                     "frame_bytes": (work / "frame.json").stat().st_size})


# ---------------------------------------------------------------- ks-unsat

def peres_rays() -> list[tuple[int, ...]]:
    """Peres's 24 rays: (1,0,0,0), (1,+-1,0,0), (1,+-1,+-1,+-1) up to
    permutation, first nonzero entry +1, in the order the formula lists them."""
    rays: list[tuple[int, ...]] = []
    for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        free = sum(1 for x in base if x) - 1
        for signs in itertools.product((1, -1), repeat=free):
            signed = (base[0],) + tuple(
                s * x for s, x in zip(signs + (1,) * (3 - free), base[1:]))
            for perm in sorted(set(itertools.permutations(signed)), reverse=True):
                lead = next(x for x in perm if x)
                ray = tuple(lead * x for x in perm)
                if ray not in rays:
                    rays.append(ray)
    return rays


def orthogonal_tetrads(rays) -> list[tuple[int, ...]]:
    """Every set of four mutually orthogonal rays, in lexicographic order."""
    vecs = np.array(rays)
    ortho = vecs @ vecs.T == 0
    return [t for t in itertools.combinations(range(len(rays)), 4)
            if all(ortho[a, b] for a, b in itertools.combinations(t, 2))]


def contexts_unsatisfiable(contexts: list[list[str]]) -> bool:
    """True iff no {0,1} assignment gives every context exactly one 1.

    Vectorised brute force over 2^labels assignments in chunks, sharing no
    code with effectkit's search or verifier.
    """
    labels = sorted({lb for ctx in contexts for lb in ctx})
    index = {lb: i for i, lb in enumerate(labels)}
    counts = np.zeros((len(contexts), len(labels)), dtype=np.int8)
    for c, ctx in enumerate(contexts):
        for lb in ctx:
            counts[c, index[lb]] += 1
    total = 1 << len(labels)
    chunk = min(total, 1 << 16)
    shifts = np.arange(len(labels), dtype=np.uint64)
    for start in range(0, total, chunk):
        x = np.arange(start, start + chunk, dtype=np.uint64)
        bits = ((x[:, None] >> shifts) & 1).astype(np.int8)
        if np.any(np.all(bits @ counts.T == 1, axis=1)):
            return False
    return True


def _write_context_set(work: Path, dim: int,
                       effects: list[tuple[str, np.ndarray]],
                       contexts: list[list[str]]) -> list[str]:
    _dump(work / "effects.json", _effects_json(dim, effects))
    _dump(work / "contexts.json", {"effects_file": "effects.json",
                                   "contexts": contexts})
    return ["dfsearch", str(work / "contexts.json")]


def ks_unsat(seed: int, work: Path) -> Workload:
    del seed  # a known answer from the literature: no random input
    rays = peres_rays()
    tetrads = orthogonal_tetrads(rays)
    if len(rays) != 24 or len(tetrads) != 24:
        raise RuntimeError(f"{len(rays)} rays and {len(tetrads)} tetrads, not 24")
    if set(np.bincount(np.ravel(tetrads))) != {4}:
        raise RuntimeError("a Peres ray is not in exactly 4 tetrads")
    labels = [f"r{i:02d}" for i in range(len(rays))]
    effects = [(lb, np.outer(v, v) / np.dot(v, v)) for lb, v in
               zip(labels, np.array(rays, dtype=float))]
    contexts = [[labels[i] for i in t] for t in tetrads]
    step = _write_context_set(work, 4, effects, contexts)
    available = {tuple(ctx) for ctx in contexts}
    verdicts: dict[bytes, str | None] = {}
    first: list[bytes] = []

    def judge(raw: bytes) -> str | None:
        out = json.loads(raw)
        if out["status"] != "unsat":
            return f"status {out['status']!r}, expected 'unsat'"
        core = out["core"]
        if any(c["kind"] != "context" or tuple(c["labels"]) not in available
               for c in core):
            return "core is not a subset of the input contexts"
        if not contexts_unsatisfiable([c["labels"] for c in core]):
            return "reported core is satisfiable"
        return None

    def check(outs: list[bytes]) -> str | None:
        if not first:
            first.append(outs[0])
        if outs[0] != first[0]:
            return "output bytes differ between operations"
        if outs[0] not in verdicts:
            verdicts[outs[0]] = judge(outs[0])
        return verdicts[outs[0]]

    return Workload([step], check,
                    {"rays": len(rays), "tetrads": len(tetrads),
                     "seed_independent": True})


# ---------------------------------------------------------------- ks-sat

def ks_sat(seed: int, work: Path, bases: int = 8) -> Workload:
    rng = np.random.default_rng(seed)
    dim = 4
    effects, contexts = [], []
    for b in range(bases):
        u = _haar(dim, rng)
        ctx = []
        for k in range(dim):
            label = f"b{b}_{k}"
            effects.append((label, np.outer(u[:, k], u[:, k].conj())))
            ctx.append(label)
        contexts.append(ctx)
    step = _write_context_set(work, dim, effects, contexts)
    models = dim ** bases

    def check(outs: list[bytes]) -> str | None:
        out = json.loads(outs[0])
        if out["status"] != "sat" or out["total_solutions"] != models:
            return (f"status {out['status']!r} with {out['total_solutions']} "
                    f"models, expected 'sat' with {models}")
        if not out["assignments"]:
            return "no assignment stored"
        for a in out["assignments"]:
            if any(sum(a[lb] for lb in ctx) != 1 or
                   any(a[lb] not in (0, 1) for lb in ctx) for ctx in contexts):
                return "a stored assignment breaks a context"
        return None

    return Workload([step], check,
                    {"dim": dim, "bases": bases, "models": models})


# ---------------------------------------------------------------- qubit-session

def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def qubit_session(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    state_seed, povm_seed, sample_seed = (int(s) for s in rng.integers(0, 2**31, 3))
    n, m = _unit(rng), _unit(rng)
    lam = float(rng.uniform(0.2, 0.8))
    state, povm = str(work / "state.json"), str(work / "povm.json")
    vec = ",".join
    steps = [
        ["gen", "--kind", "state", "--dim", "2", "--seed", str(state_seed),
         "--out", state],
        ["gen", "--kind", "povm", "--dim", "2", "--outcomes", "4",
         "--seed", str(povm_seed), "--out", povm],
        ["validate", povm, "--kind", "povm"],
        ["born", state, povm],
        ["sample", state, povm, "--shots", str(SHOTS), "--seed", str(sample_seed)],
        ["nogo2d", "--n=" + vec(map(repr, n.tolist())),
         "--m=" + vec(map(repr, m.tolist())), "--lambda", repr(lam)],
    ]
    mu = (1.0 + np.linalg.norm(lam * n + (1.0 - lam) * m)) / 2.0
    first_sample: list[bytes] = []

    def check(outs: list[bytes]) -> str | None:
        if not json.loads(outs[2])["valid"]:
            return "generated POVM failed validate"
        rho = _matrix_from_json(json.loads(Path(state).read_text()))
        effs = [_matrix_from_json(e["op"])
                for e in json.loads(Path(povm).read_text())["effects"]]
        born = json.loads(outs[3])
        expected = [float(np.trace(rho @ e).real) for e in effs]
        if max(abs(p - q) for p, q in zip(born["probs"], expected)) > BORN_TOL:
            return "born probabilities differ from tr(rho E)"
        if abs(born["sum"] - 1.0) > BORN_TOL:
            return f"born probabilities sum to {born['sum']!r}"
        if sum(json.loads(outs[4])["counts"]) != SHOTS:
            return "sample counts do not sum to the shot count"
        if not first_sample:
            first_sample.append(outs[4])
        if outs[4] != first_sample[0]:
            return "sample output differs for equal seeds"
        got = json.loads(outs[5])["mu"]
        if abs(got - mu) > MU_TOL:
            return f"nogo2d mu {got!r} != (1+|c|)/2 = {mu!r}"
        return None

    return Workload(steps, check, {"dim": 2, "calls": len(steps)})


def prepare(name: str, seed: int, work: Path, small: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` under ``work``.

    ``small`` is the self-test size: d=4 tomography and 3 ks-sat bases.
    """
    if name == "tomography":
        return tomography(seed, work, dim=4 if small else 16)
    if name == "ks-unsat":
        return ks_unsat(seed, work)
    if name == "ks-sat":
        return ks_sat(seed, work, bases=3 if small else 8)
    if name == "qubit-session":
        return qubit_session(seed, work)
    raise ValueError(f"unknown workload {name!r}")
