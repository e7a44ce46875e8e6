"""Command-line entry point.

One executable exposing every module, JSON in and out, seeded randomness.
Exit codes: 0 success, 1 domain error (with the error name and witness) or
memory exhausted, 2 malformed input or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import channels as ch
from . import faces as fc
from . import jsonio as io
from . import posdef as pd
from . import vn
from .characters import character_table, minimal_central_projections
from .errors import DomainError, InputFormatError
from .groups import build_named, conjugacy_classes, cyclic_group
from .linalg import Tolerance


def _build_parser() -> argparse.ArgumentParser:
    # global flags live on a shared parent so they can follow the subcommand,
    # matching the documented usage `groupstates chartable --in g.json --seed 7`
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed of units and samples (default 0)")
    common.add_argument("--eig-tol", type=float, default=1e-9)
    common.add_argument("--residual-tol", type=float, default=1e-8)
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(
        prog="groupstates",
        description="Finite-group harmonic analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grp = sub.add_parser("group", help="build / validate / analyze groups")
    grp_sub = grp.add_subparsers(dest="subcommand", required=True)
    g_build = grp_sub.add_parser("build", parents=[common])
    g_build.add_argument("--kind", required=True)
    g_build.add_argument("--out")
    g_val = grp_sub.add_parser("validate", parents=[common])
    g_val.add_argument("--in", dest="path", required=True)
    g_cls = grp_sub.add_parser("classes", parents=[common])
    g_cls.add_argument("--in", dest="path", required=True)

    tab = sub.add_parser("chartable", help="character table", parents=[common])
    tab.add_argument("--in", dest="path", required=True)
    tab.add_argument("--out")

    pdp = sub.add_parser("posdef", help="positive definite function tools")
    pd_sub = pdp.add_subparsers(dest="subcommand", required=True)
    p_check = pd_sub.add_parser("check", parents=[common])
    p_check.add_argument("--fn", required=True)
    p_check.add_argument("--p1", action="store_true",
                         help="also require P1 membership (state construction)")
    p_ext = pd_sub.add_parser("extreme", parents=[common])
    p_ext.add_argument("--fn", required=True)
    p_norm = pd_sub.add_parser("norm", parents=[common])
    p_norm.add_argument("--fn", required=True)

    chp = sub.add_parser("channel", help="Fourier multiplier channels")
    ch_sub = chp.add_subparsers(dest="subcommand", required=True)
    c_build = ch_sub.add_parser("build", parents=[common])
    c_build.add_argument("--fn", required=True)
    c_build.add_argument("--out")
    c_cp = ch_sub.add_parser("cp", parents=[common])
    c_cp.add_argument("--fn", required=True)
    c_apply = ch_sub.add_parser("apply", parents=[common])
    c_apply.add_argument("--ch", dest="channel", required=True)
    c_apply.add_argument("--elem", required=True)

    fcp = sub.add_parser("faces", help="split faces and decompositions")
    fc_sub = fcp.add_subparsers(dest="subcommand", required=True)
    f_list = fc_sub.add_parser("list", parents=[common])
    f_list.add_argument("--in", dest="path", required=True)
    f_member = fc_sub.add_parser("member", parents=[common])
    f_member.add_argument("--proj", required=True)
    f_member.add_argument("--state", required=True)
    f_chain = fc_sub.add_parser("chain", parents=[common])
    f_chain.add_argument("--in", dest="path", required=True)
    f_chain.add_argument("--irrep", type=int, required=True)
    f_dec = fc_sub.add_parser("decompose", parents=[common])
    f_dec.add_argument("--state", required=True)
    f_dec.add_argument("--proj", required=True)

    vnp = sub.add_parser("vn", help="von Neumann algebra structure")
    vn_sub = vnp.add_subparsers(dest="subcommand", required=True)
    v_inv = vn_sub.add_parser("invariant", parents=[common])
    v_inv.add_argument("--in", dest="path", required=True)
    v_iso = vn_sub.add_parser("iso", parents=[common])
    v_iso.add_argument("--g1", required=True)
    v_iso.add_argument("--g2", required=True)
    v_dec = vn_sub.add_parser("decompose", parents=[common])
    v_dec.add_argument("--in", dest="path", required=True)
    v_dec.add_argument("--out")
    v_hom = vn_sub.add_parser("homeo", parents=[common])
    v_hom.add_argument("--g1", required=True)
    v_hom.add_argument("--g2", required=True)
    v_hom.add_argument("--out")
    v_hg = vn_sub.add_parser("homeo-group", parents=[common])
    v_hg.add_argument("--in", dest="path", required=True)
    v_fit = vn_sub.add_parser("fit", parents=[common])
    v_fit.add_argument("--map", dest="samples", required=True)

    dem = sub.add_parser("demo", help="end-to-end worked examples", parents=[common])
    dem.add_argument("name", choices=("q8-vs-d4", "bochner", "faces-tour"))
    return parser


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            # a non-empty dict, or a list holding a dict or list, nests
            if (isinstance(val, dict) and val) or (
                isinstance(val, list) and any(isinstance(x, (dict, list)) for x in val)
            ):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(f"{pad}- {json.dumps(x)}" for x in obj)
    return f"{pad}{json.dumps(obj)}"


def _complex_list(values) -> dict:
    arr = np.asarray(values, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _write_json(path: str, payload: dict) -> None:
    """Write a report to ``--out``; a path that cannot be written is bad input."""
    try:
        Path(path).write_text(json.dumps(payload, sort_keys=True))
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_function_near(path: str, fallback_group) -> pd.GroupFunction:
    """Load a function file, using its inline group when present so that
    group mismatches are detected, else the companion file's group."""
    obj = io.load_json(path)
    if isinstance(obj, dict) and "group" in obj:
        return io.function_from_json(obj, base=Path(path).parent)
    return io.function_from_json(obj, group=fallback_group, base=Path(path).parent)


# --------------------------------------------------------------------------
# handlers, one per subcommand, each returning a JSON-ready report
# --------------------------------------------------------------------------

def _handle_group(args, tol) -> dict:
    if args.subcommand == "build":
        group = build_named(args.kind)
        payload = io.group_to_json(group)
        if args.out:
            _write_json(args.out, payload)
            return {"written": args.out, "order": group.order, "name": group.name}
        return payload
    if args.subcommand == "validate":
        group = io.load_group(args.path)
        return {"valid": True, "order": group.order, "identity": group.identity}
    group = io.load_group(args.path)
    part = conjugacy_classes(group)
    return {
        "num_classes": part.num_classes,
        "class_sizes": list(part.class_sizes),
        "classes": [list(c) for c in part.classes],
    }


def _handle_chartable(args, tol) -> dict:
    group = io.load_group(args.path)
    table = character_table(group, tol=tol)
    payload = io.table_to_json(table)
    if args.out:
        _write_json(args.out, payload)
        return {"written": args.out, "dims": list(table.dims)}
    return payload


def _handle_posdef(args, tol) -> dict:
    fn = io.load_function(args.fn)
    if args.subcommand == "check":
        verdict = pd.is_positive_definite(fn, tol)
        report = {
            "positive_definite": verdict.is_psd,
            "min_eigenvalue": verdict.witness,
            "undecided": verdict.undecided,
            "normalized": bool(
                abs(fn.values[fn.group.identity] - 1.0) <= tol.residual_tol
            ),
        }
        if args.p1:
            pd.to_state(fn, tol)  # raises NotNormalized / NotPositiveDefinite
            report["in_p1"] = True
        return report
    if args.subcommand == "extreme":
        # the dual verdict of is_extreme, with the GNS dimension (Gram rank)
        extreme, dim = pd._extremality(fn, tol)
        return {"extreme": extreme, "gns_dimension": dim}
    return {"a_norm": pd.a_norm(fn, tol)}


def _handle_channel(args, tol) -> dict:
    if args.subcommand == "build":
        fn = io.load_function(args.fn)
        channel = ch.build_channel(fn)
        payload = io.function_to_json(fn)
        if args.out:
            _write_json(args.out, payload)
            return {"written": args.out, "unital": ch.is_unital(channel, tol)}
        payload["unital"] = ch.is_unital(channel, tol)
        return payload
    if args.subcommand == "cp":
        channel = ch.build_channel(io.load_function(args.fn))
        cert = ch.is_completely_positive(channel, tol)
        return {
            "completely_positive": cert.verdict,
            "symbol_min_eigenvalue": cert.symbol_verdict.witness,
            "block_min_eigenvalue": cert.block_verdict.witness,
            "undecided": cert.undecided,
            "unital": ch.is_unital(channel, tol),
        }
    channel = ch.build_channel(io.load_function(args.channel))
    elem = _load_function_near(args.elem, channel.group)
    out = ch.apply(channel, elem)
    return io.function_to_json(out, inline_group=False)


def _handle_faces(args, tol) -> dict:
    if args.subcommand == "list":
        group = io.load_group(args.path)
        table = character_table(group, tol=tol)
        descriptors = fc.split_faces(group, table, tol)
        # the regular-representation rank is the trace n c(e)
        traces = group.order * np.array([d.coeffs[group.identity].real for d in descriptors])
        ranks = np.rint(traces).astype(np.int64).tolist()
        return {
            "num_split_faces": len(descriptors),
            "num_minimal": sum(
                1 for d in descriptors if d.irreps is not None and len(d.irreps) == 1
            ),
            "faces": [
                {"irreps": list(d.irreps), "rank": rank}
                for d, rank in zip(descriptors, ranks)
            ],
        }
    if args.subcommand == "member":
        proj_fn = io.load_function(args.proj)
        state_fn = _load_function_near(args.state, proj_fn.group)
        face = fc.descriptor_from_projection(proj_fn.group, proj_fn.values, tol=tol)
        state = pd.to_state(state_fn, tol)
        value = state.expectation(face.coeffs)
        return {
            "member": fc.face_membership(face, state, tol),
            "value": [value.real, value.imag],
            "central": face.is_central,
        }
    if args.subcommand == "chain":
        group = io.load_group(args.path)
        table = character_table(group, tol=tol)
        if not 0 <= args.irrep < table.num_irreps:
            raise InputFormatError(
                f"irrep index {args.irrep} out of range for {table.num_irreps} irreps"
            )
        length = fc.maximal_chain_length(group, table, args.irrep, tol=tol)
        return {
            "irrep": args.irrep,
            "chain_length": length,
            "dims": list(table.dims),
        }
    proj_fn = io.load_function(args.proj)
    state_fn = _load_function_near(args.state, proj_fn.group)
    face = fc.descriptor_from_projection(proj_fn.group, proj_fn.values, tol=tol)
    state = pd.to_state(state_fn, tol)
    t, w1, w2 = fc.state_decomposition(state, face, tol)
    report = {"t": t}
    if w1 is not None:
        report["component_in_face"] = _complex_list(w1.coefficients)
    if w2 is not None:
        report["component_in_complement"] = _complex_list(w2.coefficients)
    return report


def _handle_vn(args, tol, seed: int) -> dict:
    if args.subcommand == "invariant":
        group = io.load_group(args.path)
        inv = vn.vn_invariant(group)
        return {"invariant": list(inv.dims), "order": inv.order}
    if args.subcommand == "iso":
        g1 = io.load_group(args.g1)
        g2 = io.load_group(args.g2)
        verdict = vn.vn_isomorphic(g1, g2)
        report = {
            "isomorphic": verdict.isomorphic,
            "invariant_g1": list(verdict.invariant_g.dims),
            "invariant_g2": list(verdict.invariant_h.dims),
        }
        if verdict.isomorphic:
            report["invariant"] = list(verdict.invariant_g.dims)
        return report
    if args.subcommand == "decompose":
        group = io.load_group(args.path)
        decomp = vn.block_decompose(group, seed=seed, tol=tol)
        units = {
            f"block_{pi}": [
                [_complex_list(decomp.units[pi][j, k]) for k in range(d)]
                for j in range(d)
            ]
            for pi, d in enumerate(decomp.block_dims)
        }
        payload = {"dims": list(decomp.block_dims), "units": units}
        if args.out:
            _write_json(args.out, payload)
            return {"written": args.out, "dims": list(decomp.block_dims)}
        return payload
    if args.subcommand == "homeo":
        g1 = io.load_group(args.g1)
        g2 = io.load_group(args.g2)
        homeo = vn.construct_affine_homeomorphism(g1, g2, seed, tol)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(50):
            fn = pd.random_p1(g1, rng)
            back = homeo.backward(homeo.forward(fn))
            worst = max(worst, float(np.abs(back.values - fn.values).max()))
        if args.out:
            _write_json(args.out, {
                "matching": list(homeo.matching),
                "forward": io.matrix_to_json(homeo.forward_matrix),
                "backward": io.matrix_to_json(homeo.backward_matrix),
            })
        return {
            "matching": list(homeo.matching),
            "round_trip_residual": worst,
            "samples_checked": 50,
            "written": args.out,
        }
    if args.subcommand == "homeo-group":
        group = io.load_group(args.path)
        desc = vn.homeo_group_description(group)
        return {
            "invariant": list(desc.invariant.dims),
            "component_count": desc.component_count,
            "factors": [
                {
                    "dim": f.dim,
                    "multiplicity": f.multiplicity,
                    "block_group": f.block_group,
                    "label_permutations": f.label_permutations,
                }
                for f in desc.factors
            ],
            "description": desc.text(),
        }
    # fit
    obj = io.load_json(args.samples)
    base = Path(args.samples).parent
    group = io._resolve_group(io._need(obj, "group", "samples"), base)
    pairs = io.pairs_from_json(obj, group, base)
    decomp = vn.block_decompose(group, seed=seed, tol=tol)
    fitted = vn.fit_affine_map_from_pairs(group, pairs, tol)
    desc = vn.verify_jordan_form(fitted, decomp, seed=seed, tol=tol)
    worst = max(
        float(np.abs(vn.apply_descriptor(desc, fin, decomp).values - fout.values).max())
        for fin, fout in pairs
    )
    report = io.descriptor_to_json(desc)
    report["reproduction_residual"] = worst
    return report


def _handle_demo(args, tol, seed: int) -> dict:
    if args.name == "q8-vs-d4":
        return _demo_q8_d4(tol, seed)
    if args.name == "bochner":
        return _demo_bochner(tol, seed)
    return _demo_faces_tour(tol, seed)


def _demo_q8_d4(tol, seed: int) -> dict:
    q8 = build_named("quaternion8")
    d4 = build_named("dihedral:4")
    verdict = vn.vn_isomorphic(q8, d4)
    homeo = vn.construct_affine_homeomorphism(q8, d4, seed, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    all_p1 = 0
    for _ in range(200):
        fn = pd.random_p1(q8, rng)
        image = homeo.forward(fn)
        if pd.is_positive_definite(image, tol).is_psd:
            all_p1 += 1
        back = homeo.backward(image)
        worst = max(worst, float(np.abs(back.values - fn.values).max()))
    return {
        "invariant_q8": list(verdict.invariant_g.dims),
        "invariant_d4": list(verdict.invariant_h.dims),
        "isomorphic": verdict.isomorphic,
        "matching": list(homeo.matching),
        "samples": 200,
        "images_in_p1": all_p1,
        "max_round_trip_residual": worst,
    }


def _demo_bochner(tol, seed: int) -> dict:
    group = cyclic_group(12)
    rng = np.random.default_rng(seed)
    agree = disagree = undecided = 0
    for _ in range(500):
        fn = pd.random_hermitian_symmetric(group, rng)
        verdict = pd.is_positive_definite(fn, tol)
        spectrum = np.fft.fft(fn.values)
        oracle_min = float(spectrum.real.min())
        cutoff = verdict.cutoff
        if verdict.undecided or abs(oracle_min) <= 10 * cutoff:
            undecided += 1
            continue
        if verdict.is_psd == (oracle_min >= -cutoff):
            agree += 1
        else:
            disagree += 1
    return {
        "group": "Z12",
        "samples": 500,
        "agreements": agree,
        "disagreements": disagree,
        "undecided_band": undecided,
    }


def _demo_faces_tour(tol, seed: int) -> dict:
    s3 = build_named("symmetric:3")
    table = character_table(s3, tol=tol)
    descriptors = fc.split_faces(s3, table, tol)
    lengths = [
        fc.maximal_chain_length(s3, table, pi, tol=tol)
        for pi in range(table.num_irreps)
    ]
    rng = np.random.default_rng(seed)
    minimal = minimal_central_projections(s3, table, tol)
    worst = 0.0
    for _ in range(20):
        state = pd.to_state(pd.random_p1(s3, rng), tol)
        face = fc.descriptor_from_projection(s3, minimal[0].coeffs, tol=tol)
        t, w1, w2 = fc.state_decomposition(state, face, tol)
        if w1 is not None and w2 is not None:
            recon = t * w1.coefficients + (1 - t) * w2.coefficients
            worst = max(worst, float(np.abs(recon - state.coefficients).max()))
    return {
        "group": "S3",
        "num_split_faces": len(descriptors),
        "chain_lengths": lengths,
        "dims": list(table.dims),
        "max_decomposition_residual": worst,
    }


# built by the first dispatch, not at import; parse_args keeps no state
# between calls, so one parser serves every call in the process
_parser: argparse.ArgumentParser | None = None


def _report_error(args, payload: dict, code: int) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"ERROR {payload['error']}: {payload['message']}")
    return code


def dispatch(argv) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        tol = Tolerance(eig_tol=args.eig_tol, residual_tol=args.residual_tol)
        if args.command == "group":
            report = _handle_group(args, tol)
        elif args.command == "chartable":
            report = _handle_chartable(args, tol)
        elif args.command == "posdef":
            report = _handle_posdef(args, tol)
        elif args.command == "channel":
            report = _handle_channel(args, tol)
        elif args.command == "faces":
            report = _handle_faces(args, tol)
        elif args.command == "vn":
            report = _handle_vn(args, tol, args.seed)
        else:
            report = _handle_demo(args, tol, args.seed)
    except DomainError as exc:
        return _report_error(args, {"error": exc.name, "message": str(exc), "witness": exc.witness}, 1)
    except np.linalg.LinAlgError as exc:
        # a ValueError, but raised by a solver on well-formed input
        return _report_error(args, {"error": "ConvergenceFailure", "message": str(exc), "witness": {}}, 1)
    except (InputFormatError, ValueError) as exc:
        return _report_error(args, {"error": type(exc).__name__, "message": str(exc)}, 2)
    except MemoryError as exc:
        # a last resort: under overcommit the kernel may kill the process
        # instead of raising
        return _report_error(args, {"error": "MemoryError", "message": str(exc)}, 1)

    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report))
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
