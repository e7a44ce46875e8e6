"""The four closed-loop workloads over the group ladder.

Each workload has a ``setup`` (the structures its operations read, timed
as ``setup_s``) and an ``ops`` generator that turns a seed into a fixed
list of operations.  An operation's ``run`` holds only calls into the
package; its ``check`` is an oracle from ``checks`` that runs untimed.

Package functions are always reached through their module (``vn.x``, not
``from ... import x``) so the traced run can rebind them from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from groupstates import channels, characters, cli, errors, faces, groups, jsonio, posdef, vn

import checks


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


# (label, kind, textbook block dimensions, permutation generators)
LADDER = [
    ("S3", "symmetric:3", (1, 1, 2), None),
    ("Q8", "quaternion8", (1, 1, 1, 1, 2), None),
    ("D6", "dihedral:6", (1, 1, 1, 1, 2, 2), None),
    ("S4", "symmetric:4", (1, 1, 2, 3, 3), [(1, 0, 2, 3), (1, 2, 3, 0)]),
    ("S4xZ2", "product:symmetric:4,cyclic:2", (1, 1, 1, 1, 2, 2, 3, 3, 3, 3), None),
    ("D30", "dihedral:30", (1,) * 4 + (2,) * 14, None),
    ("S5", "symmetric:5", (1, 1, 4, 4, 5, 5, 6), [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
]
DIMS = {label: dims for label, _, dims, _ in LADDER}
KIND = {label: kind for label, kind, _, _ in LADDER}

# split_faces holds 2^k dense n x n complex matrices; run it only where they
# fit in this many bytes.  This leaves out D30 (k = 18, about 15 GB), which
# the envelope probe measures instead.
SPLIT_FACE_BYTES = 512 * 2**20


def _pure_state(decomp, pi: int, rng) -> np.ndarray:
    """Values of a pure state in block pi along a seeded random vector."""
    d = decomp.block_dims[pi]
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return vn.pure_state_function(decomp, pi, v).values


def _refused(call, exc_type):
    """Run ``call``; return (result, None) or (None, name) on ``exc_type``."""
    try:
        return call(), None
    except exc_type as exc:
        return None, type(exc).__name__


# --------------------------------------------------------------------------
# classify: the construction layers on every ladder group
# --------------------------------------------------------------------------

class Classify:
    """Per group: build, relabel, classes, table, projections, blocks,
    invariant, split faces and chains.  Per pair: iso verdict and the
    affine homeomorphism."""

    # no reference part tracked its long construction operations better than
    # none: scaled, ten runs spread wider than unscaled (README.md)
    reference_parts = ()
    nominal_pass_s = 23.0

    def setup(self):
        # every construction is part of an operation; set-up is the import
        # plus one untimed pass over the smallest group, so lazy first-call
        # costs do not land in the first operation
        built: dict[str, tuple] = {}
        label, kind, _, _ = LADDER[0]
        self.detail = {}
        self._group(label, kind, None, groups.build_named(kind).cayley, built)
        self._pair(label, label, None, built)
        return {}

    def ops(self, ctx, seed: int, passes: int) -> list[Op]:
        rng = np.random.default_rng([seed, 1])
        self.detail: dict[str, dict[str, float]] = {}
        self.stats: dict[str, float] = {}
        out = []
        for _ in range(passes):
            built: dict[str, tuple] = {}
            for label, kind, dims, gens in LADDER:
                # the relabelled copy's Cayley table is input; only its
                # validation is timed
                cayley = groups.build_named(kind).cayley
                relabelled = checks.relabel_table(cayley, rng.permutation(len(cayley)))
                out.append(Op(
                    f"group:{label}",
                    partial(self._group, label, kind, gens, relabelled, built),
                    partial(checks.check_group, {"dims": dims}),
                ))
            # each group with its relabelled copy, then Q8 against a group with
            # the same invariant and one with a different invariant
            pairs = [(label, label, None, True) for label, *_ in LADDER]
            pairs += [("Q8", "D4", "dihedral:4", True),
                      ("Q8", "Z2xZ4", "product:cyclic:2,cyclic:4", False)]
            for left, right, kind, iso in pairs:
                spec = {"isomorphic": iso, "samples": 3, "sample_seed": int(rng.integers(2**31))}
                out.append(Op(
                    f"pair:{left}~{right}",
                    partial(self._pair, left, right, kind, built),
                    partial(checks.check_pair, spec, stats=self.stats),
                ))
        return out

    def _timer(self, label):
        """Adds each step's wall time to this group's row of the detail table."""
        steps = self.detail.setdefault(label, {})

        def timed(step, call):
            t0 = time.perf_counter()
            value = call()
            steps[step] = steps.get(step, 0.0) + (time.perf_counter() - t0) * 1e3
            return value

        return timed

    def _group(self, label, kind, gens, relabelled, built):
        timed = self._timer(label)
        g = timed("build", lambda: groups.build_named(kind))
        perm_group = (
            timed("perm_build", lambda: groups.from_permutation_generators(gens))
            if gens else None
        )
        copy = timed("relabel", lambda: groups.validate_group(relabelled))
        built[label] = (g, copy)
        part = timed("classes", lambda: groups.conjugacy_classes(g))
        table = timed("table", lambda: characters.character_table(g, partition=part))
        minimal = timed("projections", lambda: characters.minimal_central_projections(g, table))
        decomp = timed("decompose", lambda: vn.block_decompose(g, table))
        invariant = timed("invariant", lambda: vn.vn_invariant(g, table=table))
        n, k = g.order, table.num_irreps
        face_list = None
        if 2**k * n * n * 16 <= SPLIT_FACE_BYTES:
            face_list = timed("split_faces", lambda: faces.split_faces(g, table, minimal=minimal))
        chains = timed("chains", lambda: [
            faces.maximal_chain_length(g, table, pi, decomp=decomp) for pi in range(k)
        ])
        return {
            "group": g, "perm_group": perm_group, "copy": copy, "partition": part,
            "table": table, "minimal": minimal, "decomp": decomp,
            "invariant": invariant, "faces": face_list, "chains": chains,
        }

    def _pair(self, left, right, kind, built):
        timed = self._timer(left if kind is None else f"{left}~{right}")
        source = built[left][0]
        target = built[right][1] if kind is None else groups.build_named(kind)
        verdict = timed("iso", lambda: vn.vn_isomorphic(source, target))
        homeo, refused = timed("homeo", lambda: _refused(
            lambda: vn.construct_affine_homeomorphism(source, target), errors.NotIsomorphic
        ))
        return {"verdict": verdict, "homeo": homeo, "refused": refused,
                "source": source, "target": target}


# --------------------------------------------------------------------------
# state_queries: the read path through prebuilt structures
# --------------------------------------------------------------------------

# group -> rounds of QUERY_KINDS per pass.  S5 gets four rounds, so most of
# the time goes to queries whose cost is dense linear algebra, which varied
# half as much from run to run on a shared 2-vCPU machine as the
# interpreter-bound queries on the small groups.
QUERY_GROUPS = {"S4xZ2": 1, "D30": 1, "S5": 4}
# one query per kind, in this order; four positive definite (full rank,
# rank d, rank d1 + d2) and two normalized but not (full rank, low rank)
QUERY_KINDS = ("mix", "pure", "spike", "lowmix", "mix", "indef")


class StateQueries:
    # a mix of dense algebra, array building and interpreter work
    reference_parts = ("dense", "stream", "loop", "small")
    nominal_pass_s = 1.4

    def setup(self):
        ctx = {}
        for label in QUERY_GROUPS:
            g = groups.build_named(KIND[label])
            part = groups.conjugacy_classes(g)
            table = characters.character_table(g, partition=part)
            minimal = characters.minimal_central_projections(g, table)
            decomp = vn.block_decompose(g, table)
            ctx[label] = {"group": g, "table": table, "minimal": minimal, "decomp": decomp}
        return ctx

    def ops(self, ctx, seed: int, passes: int) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        fixed = {}
        for label in QUERY_GROUPS:
            c = ctx[label]
            g = c["group"]
            symbol = checks.delta_mixture(g.cayley, g.inverses, g.identity, rng, 0.3)
            fixed[label] = {
                # minimal split faces, wrapped as the enumeration would
                "faces": [
                    faces.FaceDescriptor(g, p.coeffs, p.matrix, True, True, irreps=p.irreps)
                    for p in c["minimal"]
                ],
                "symbol": symbol,
                "channel": channels.build_channel(posdef.GroupFunction(g, symbol)),
                "descriptor": vn.random_descriptor(c["decomp"], rng),
            }
        out = []
        for _ in range(passes):
            for label, rounds in QUERY_GROUPS.items():
                for kind in QUERY_KINDS * rounds:
                    spec = self._spec(ctx[label], fixed[label], kind, rng)
                    out.append(Op(
                        f"query:{label}:{kind}",
                        partial(self._query, ctx[label], fixed[label], spec),
                        partial(checks.check_query, spec),
                    ))
        return out

    @staticmethod
    def _spec(c, fixed, kind, rng) -> dict:
        g, decomp = c["group"], c["decomp"]
        dims = decomp.block_dims
        k = len(dims)
        pure = partial(_pure_state, decomp, rng=rng)
        members = [False] * k
        if kind == "mix":
            values = checks.delta_mixture(g.cayley, g.inverses, g.identity, rng,
                                          float(rng.uniform(0.1, 0.5)))
            pd, norm = True, 1.0
        elif kind == "pure":
            pi = int(rng.integers(k))
            values, pd, norm = pure(pi), True, 1.0
            members[pi] = True
        elif kind == "lowmix":
            a, b = rng.choice(k, size=2, replace=False)
            t = float(rng.uniform(0.2, 0.8))
            values, pd, norm = t * pure(a) + (1 - t) * pure(b), True, 1.0
        elif kind == "spike":
            c_ = float(rng.uniform(1.5, 3.0))
            s = checks.involution(g.cayley, g.identity, rng)
            values, pd, norm = checks.spike(g.order, g.identity, s, c_), False, c_
        else:  # indef: 1.5 psi_a - 0.5 psi_b across two blocks, A-norm 1.5 + 0.5
            a, b = rng.choice(k, size=2, replace=False)
            values, pd, norm = 1.5 * pure(a) - 0.5 * pure(b), False, 2.0
        return {
            "group": g, "dims": dims, "values": values, "pd": pd, "a_norm": norm,
            "members": members, "split": int(rng.integers(k)),
            "symbol": fixed["symbol"],
            "projection_coeffs": [p.coeffs for p in c["minimal"]],
        }

    @staticmethod
    def _query(c, fixed, spec) -> dict:
        fn = posdef.GroupFunction(c["group"], spec["values"])
        r = {
            "pd": posdef.is_positive_definite(fn),
            "a_norm": posdef.a_norm(fn),
            "blocks": c["decomp"].from_coefficients(fn.values),
            "image": vn.apply_descriptor(fixed["descriptor"], fn, c["decomp"]),
            "applied": channels.apply(fixed["channel"], fn),
            "composed": channels.compose(fixed["channel"], channels.build_channel(fn)),
        }
        state, r["refused"] = _refused(lambda: posdef.to_state(fn), errors.NotPositiveDefinite)
        if state is not None:
            r["back"] = posdef.from_state(state)
            r["members"] = [faces.face_membership(f, state) for f in fixed["faces"]]
            r["decomposition"] = faces.state_decomposition(state, fixed["faces"][spec["split"]])
        return r


# --------------------------------------------------------------------------
# certify: the dense certificates in posdef, channels and the Jordan fit
# --------------------------------------------------------------------------

CERTIFY_GROUPS = (("S3", "symmetric:3"), ("Q8", "quaternion8"), ("D4", "dihedral:4"),
                  ("D6", "dihedral:6"), ("S4", "symmetric:4"))


class Certify:
    # dominated by building the Choi and commutant matrices, which is
    # bound by memory bandwidth
    reference_parts = ("stream",)
    nominal_pass_s = 4.5

    def setup(self):
        ctx = {}
        for label, kind in CERTIFY_GROUPS:
            g = groups.build_named(kind)
            table = characters.character_table(g)
            ctx[label] = {"group": g, "table": table, "decomp": vn.block_decompose(g, table)}
        return ctx

    def ops(self, ctx, seed: int, passes: int) -> list[Op]:
        rng = np.random.default_rng([seed, 3])
        out = []
        for _ in range(passes):
            for label, _ in CERTIFY_GROUPS:
                out += self._group_ops(label, ctx[label], rng)
        return out

    def _group_ops(self, label, c, rng) -> list[Op]:
        g, table, decomp = c["group"], c["table"], c["decomp"]
        dims = decomp.block_dims
        k, n = len(dims), g.order
        pure = partial(_pure_state, decomp, rng=rng)

        def mixed():
            return checks.delta_mixture(g.cayley, g.inverses, g.identity, rng,
                                        float(rng.uniform(0.1, 0.5)))

        # (kind, values, extreme, GNS dimension): pure block states are
        # extreme; a normalized character of a d >= 2 block is the average
        # of d pure states, so it is not (the criterion-10 counterexample)
        cases = [("pure", pure(pi), True, dims[pi]) for pi in range(k)]
        cases += [
            ("char1" if d == 1 else "charD", vn.central_state_function(table, pi).values,
             d == 1, d * d)
            for pi, d in enumerate(dims)
        ]
        for _ in range(2):
            a, b = rng.choice(k, size=2, replace=False)
            t = float(rng.uniform(0.2, 0.8))
            cases.append(("lowmix", t * pure(a) + (1 - t) * pure(b), False, dims[a] + dims[b]))
        cases += [("full", mixed(), False, n) for _ in range(2)]

        out = []
        for kind, values, extreme, dim in cases:
            out.append(Op(
                f"extreme:{label}:{kind}",
                partial(self._extreme, g, values),
                partial(checks.check_extreme, {"extreme": extreme, "gns_dim": dim}),
            ))
        s = checks.involution(g.cayley, g.identity, rng)
        for values, cp in ((mixed(), True),
                           (checks.spike(n, g.identity, s, float(rng.uniform(1.5, 3.0))), False)):
            out.append(Op(
                f"cp:{label}:{'pd' if cp else 'npd'}",
                partial(self._cp, g, values),
                partial(checks.check_cp, {"cp": cp}),
            ))
        desc = vn.random_descriptor(decomp, rng)
        out.append(Op(
            f"jordan:{label}",
            partial(self._jordan, decomp, desc, int(rng.integers(2**31))),
            partial(checks.check_jordan, {"sigma": desc.sigma, "transpose": desc.transpose}),
        ))
        return out

    @staticmethod
    def _extreme(g, values):
        fn = posdef.GroupFunction(g, values)
        rep = posdef.gns(fn)
        return {"gns_dim": rep.dim, "extreme": posdef.is_extreme(fn)}

    @staticmethod
    def _cp(g, values):
        cert = channels.is_completely_positive(channels.build_channel(posdef.GroupFunction(g, values)))
        return {"verdict": cert.verdict, "symbol_undecided": cert.symbol_verdict.undecided}

    @staticmethod
    def _jordan(decomp, desc, seed):
        fit = vn.verify_jordan_form(lambda fn: vn.apply_descriptor(desc, fn, decomp), decomp, seed=seed)
        return {"sigma": fit.sigma, "transpose": fit.transpose}


# --------------------------------------------------------------------------
# cli: documented commands through cli.dispatch on JSON files
# --------------------------------------------------------------------------

CLI_GROUPS = {
    "s4z2": "product:symmetric:4,cyclic:2", "s5": "symmetric:5", "q8": "quaternion8",
    "d4": "dihedral:4", "s3": "symmetric:3", "z2z4": "product:cyclic:2,cyclic:4",
}


def _sorted_is(expected):
    return lambda got: isinstance(got, list) and sorted(got) == sorted(expected)


def _near(expected, tol=1e-6):
    return lambda got: isinstance(got, (int, float)) and abs(got - expected) <= tol * max(1.0, abs(expected))


class Cli:
    # interpreter-bound parsing and dispatch around small dense calls
    reference_parts = ("dense", "loop")
    nominal_pass_s = 0.6

    def __init__(self, scratch_root: Path):
        self.scratch_root = scratch_root
        self.dir: Path | None = None

    def setup(self):
        # commands read their inputs from disk; set-up is the import
        return {}

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def _write_inputs(self, d: Path, rng) -> dict:
        d.mkdir()
        built = {}
        for stem, kind in CLI_GROUPS.items():
            g = groups.build_named(kind)
            built[stem] = g
            (d / f"{stem}.json").write_text(json.dumps(jsonio.group_to_json(g)))

        def write_fn(name, stem, values):
            obj = {"group": f"{stem}.json", "re": values.real.tolist(), "im": values.imag.tolist()}
            (d / name).write_text(json.dumps(obj))

        params = {}
        for stem in ("s5", "s3", "q8"):
            g = built[stem]
            write_fn(f"pd_{stem}.json", stem,
                     checks.delta_mixture(g.cayley, g.inverses, g.identity, rng, 0.3))
            c = float(rng.uniform(1.5, 3.0))
            s = checks.involution(g.cayley, g.identity, rng)
            write_fn(f"npd_{stem}.json", stem, checks.spike(g.order, g.identity, s, c))
            params[stem] = c
        (d / "garbled.json").write_text('{"order": 3, "cayley": [[0, 1')
        (d / "short.json").write_text(json.dumps({"group": "s5.json", "re": [1.0, 0.0]}))
        (d / "notgroup.json").write_text(json.dumps({"order": 2, "cayley": [[0, 0], [1, 1]]}))
        return params

    def ops(self, ctx, seed: int, passes: int) -> list[Op]:
        rng = np.random.default_rng([seed, 4])
        self.close()
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch_root))
        out = []
        for i in range(passes):
            d = self.dir / f"pass{i}"
            params = self._write_inputs(d, rng)
            cmd_seed = str(int(rng.integers(1000)))
            p = lambda name: str(d / name)  # noqa: E731
            s5_dims = DIMS["S5"]
            s4z2_dims = DIMS["S4xZ2"]
            commands = [
                (["group", "validate", "--in", p("s4z2.json")], 0, {"valid": True, "order": 48}),
                (["group", "classes", "--in", p("q8.json")], 0,
                 {"num_classes": 5, "class_sizes": _sorted_is([1, 1, 2, 2, 2])}),
                (["chartable", "--in", p("s5.json"), "--seed", cmd_seed], 0,
                 {"dims": _sorted_is(s5_dims)}),
                (["vn", "invariant", "--in", p("s5.json")], 0,
                 {"invariant": list(s5_dims), "order": 120}),
                (["vn", "decompose", "--in", p("s4z2.json"), "--out", p("dec.json"),
                  "--seed", cmd_seed], 0, {"dims": _sorted_is(s4z2_dims)}),
                (["faces", "list", "--in", p("s4z2.json")], 0,
                 {"num_split_faces": 2 ** len(s4z2_dims), "num_minimal": len(s4z2_dims)}),
                (["faces", "chain", "--in", p("q8.json"), "--irrep", "4"], 0, {"chain_length": 2}),
                (["posdef", "check", "--fn", p("pd_s5.json"), "--p1"], 0,
                 {"positive_definite": True, "in_p1": True}),
                (["posdef", "check", "--fn", p("npd_s5.json")], 0, {"positive_definite": False}),
                (["posdef", "check", "--fn", p("npd_s5.json"), "--p1"], 1,
                 {"error": "NotPositiveDefinite"}),
                (["posdef", "norm", "--fn", p("pd_s5.json")], 0, {"a_norm": _near(1.0)}),
                (["posdef", "norm", "--fn", p("npd_s5.json")], 0, {"a_norm": _near(params["s5"])}),
                (["channel", "cp", "--fn", p("pd_s3.json")], 0,
                 {"completely_positive": True}),
                (["channel", "cp", "--fn", p("npd_q8.json")], 0,
                 {"completely_positive": False}),
                (["vn", "iso", "--g1", p("q8.json"), "--g2", p("d4.json")], 0, {"isomorphic": True}),
                (["vn", "iso", "--g1", p("q8.json"), "--g2", p("z2z4.json")], 0,
                 {"isomorphic": False}),
                (["vn", "homeo", "--g1", p("q8.json"), "--g2", p("d4.json"), "--seed", cmd_seed], 0,
                 {"round_trip_residual": lambda x: isinstance(x, float) and x <= checks.RESIDUAL}),
                (["vn", "homeo", "--g1", p("q8.json"), "--g2", p("z2z4.json")], 1,
                 {"error": "NotIsomorphic"}),
                (["group", "validate", "--in", p("garbled.json")], 2, {"error": "InputFormatError"}),
                (["posdef", "check", "--fn", p("short.json")], 2, {"error": "InputFormatError"}),
                (["chartable", "--in", p("missing.json")], 2, {"error": "InputFormatError"}),
                (["group", "validate", "--in", p("notgroup.json")], 1, {"error": "NotLatinSquare"}),
                (["vn", "frobnicate"], 2, {}),
            ]
            for argv, code, fields in commands:
                out.append(Op(
                    "cli:" + " ".join(argv[:2]),
                    partial(self._dispatch, argv),
                    partial(checks.check_cli, {"exit": code, "fields": fields}),
                ))
        return out

    @staticmethod
    def _dispatch(argv):
        # the output is parsed by the check, untimed
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        return {"exit": code, "stdout": buf.getvalue()}
