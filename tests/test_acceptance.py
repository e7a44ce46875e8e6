"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The characters clause of criterion 10 is expected to fail and is
marked xfail(strict): the normalized character of a block of dimension
d >= 2 is the average of d distinct pure states, so by the extremality
criterion (GNS representation irreducible) it cannot test extreme.  The
constructive counterexample is asserted in its own test below and in
tests/test_posdef.py.
"""

import numpy as np
import pytest

from groupstates import (
    GroupFunction,
    apply_descriptor,
    block_decompose,
    build_channel,
    canonical_phase,
    character_table,
    construct_affine_homeomorphism,
    convex_combine,
    cyclic_group,
    dihedral_group,
    face_membership,
    is_completely_positive,
    is_extreme,
    is_positive_definite,
    maximal_chain_length,
    pure_state_function,
    quaternion_group,
    random_descriptor,
    random_hermitian_symmetric,
    random_p1,
    split_faces,
    state_decomposition,
    symmetric_group,
    to_state,
    verify_jordan_form,
    vn_invariant,
    vn_isomorphic,
)
from groupstates.cli import dispatch
from groupstates.groups import algebra_matrix

from conftest import (
    builtin_catalog,
    complementary_split_face,
    criterion_04_groups,
    dense_from_algebra,
    unit_matrix,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:>2} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


def test_criterion_01_q8_d4_fixture():
    q8, d4 = quaternion_group(), dihedral_group(4)
    inv_q8 = vn_invariant(q8).dims
    inv_d4 = vn_invariant(d4).dims
    verdict = vn_isomorphic(q8, d4)
    homeo = construct_affine_homeomorphism(q8, d4, seed=0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        fn = random_p1(q8, rng)
        back = homeo.backward(homeo.forward(fn))
        worst = max(worst, float(np.abs(back.values - fn.values).max()))
    ok = (
        inv_q8 == (1, 1, 1, 1, 2)
        and inv_d4 == (1, 1, 1, 1, 2)
        and verdict.isomorphic
        and worst < 1e-8
    )
    _report(1, "Q8/D4 fixture", ok, f"round-trip residual {worst:.2e}")


def test_criterion_02_negative_fixtures():
    v1 = vn_isomorphic(symmetric_group(3), cyclic_group(6))
    v2 = vn_isomorphic(quaternion_group(), cyclic_group(8))
    ok = (
        not v1.isomorphic
        and v1.invariant_g.dims == (1, 1, 2)
        and v1.invariant_h.dims == (1,) * 6
        and not v2.isomorphic
        and v2.invariant_g.dims == (1, 1, 1, 1, 2)
        and v2.invariant_h.dims == (1,) * 8
    )
    _report(2, "negative fixtures", ok)


def test_criterion_03_bochner_oracle():
    rng = np.random.default_rng(103)
    disagreements = 0
    undecided = 0
    total = 0
    for n in range(2, 17):
        g = cyclic_group(n)
        for _ in range(500):
            fn = random_hermitian_symmetric(g, rng)
            verdict = is_positive_definite(fn)
            oracle_min = float(np.fft.fft(fn.values).real.min())
            total += 1
            if verdict.undecided or abs(oracle_min) <= 10 * verdict.cutoff:
                undecided += 1
                continue
            if verdict.is_psd != (oracle_min >= -verdict.cutoff):
                disagreements += 1
    _report(
        3,
        "Bochner oracle on Z_n",
        disagreements == 0,
        f"{total} samples, {undecided} in undecided band, {disagreements} disagreements",
    )


def test_criterion_04_cp_equivalence():
    groups = criterion_04_groups()
    assert all(g.order <= 12 for g in groups)
    rng = np.random.default_rng(104)
    mismatches = 0
    undecided = 0
    positives = negatives = 0
    for i in range(1000):
        g = groups[i % len(groups)]
        # alternate generic symbols (mostly indefinite) with certified
        # positive definite ones so both branches of the equivalence run
        fn = random_p1(g, rng) if i % 2 else random_hermitian_symmetric(g, rng)
        cert = is_completely_positive(build_channel(fn))  # raises on sub-check split
        verdict = is_positive_definite(fn)
        # random_p1 symbols of low rank put a zero eigenvalue in some Fourier
        # block, so only the symbol-side verdicts decide whether a sample counts
        if cert.symbol_verdict.undecided or verdict.undecided:
            undecided += 1
            continue
        if verdict.is_psd:
            positives += 1
        else:
            negatives += 1
        if cert.verdict != verdict.is_psd:
            mismatches += 1
    _report(
        4,
        "CP <-> positive definite",
        mismatches == 0 and positives > 300 and negatives > 300,
        f"{positives} CP, {negatives} non-CP, {undecided} undecided, "
        f"{mismatches} mismatches",
    )


def test_criterion_05_bijection_and_affinity():
    groups = [cyclic_group(4), symmetric_group(3), dihedral_group(4), quaternion_group()]
    rng = np.random.default_rng(105)
    worst_rt = 0.0
    worst_affine = 0.0
    for g in groups:
        for _ in range(500):
            fn = random_p1(g, rng)
            state = to_state(fn)
            back = state.coefficients
            worst_rt = max(worst_rt, float(np.abs(back - fn.values).max()))
        for _ in range(50):
            f1, f2 = random_p1(g, rng), random_p1(g, rng)
            t = float(rng.uniform())
            mixed, d1, d2 = (
                algebra_matrix(g, to_state(fn).coefficients)
                for fn in (convex_combine([t, 1 - t], [f1, f2]), f1, f2)
            )
            split = t * d1 + (1 - t) * d2
            worst_affine = max(worst_affine, float(np.abs(mixed - split).max()))
    ok = worst_rt < 1e-10 and worst_affine < 1e-10
    _report(
        5,
        "state bijection + affinity",
        ok,
        f"round-trip {worst_rt:.2e}, affinity {worst_affine:.2e}",
    )


def test_criterion_06_split_face_structure_q8():
    q8 = quaternion_group()
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    faces = split_faces(q8, table)
    by_set = {f.irreps: f for f in faces}
    rng = np.random.default_rng(106)

    def face_state(members):
        fns = []
        for pi in members:
            d = table.dims[pi]
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            fns.append(pure_state_function(decomp, pi, v))
        w = rng.dirichlet(np.ones(len(fns)))
        return to_state(convex_combine(w, fns))

    order_ok = disjoint_ok = True
    for members, face in by_set.items():
        if not members:
            state = to_state(random_p1(q8, rng))
            if face_membership(face, state):
                order_ok = False
            continue
        for _ in range(100):
            state = face_state(members)
            for other, other_face in by_set.items():
                if set(members) <= set(other):
                    if not face_membership(other_face, state):
                        order_ok = False
                elif other and not (set(members) & set(other)):
                    if face_membership(other_face, state):
                        disjoint_ok = False

    worst_recon = 0.0
    for _ in range(100):
        state = to_state(random_p1(q8, rng))
        face = faces[int(rng.integers(1, 31))]
        t, w1, w2 = state_decomposition(state, face)
        if w1 is None or w2 is None:
            continue
        recon = t * w1.coefficients + (1 - t) * w2.coefficients
        worst_recon = max(worst_recon, float(np.abs(recon - state.coefficients).max()))
        if not face_membership(face, w1):
            order_ok = False
        if not face_membership(complementary_split_face(face), w2):
            order_ok = False
    ok = order_ok and disjoint_ok and worst_recon < 1e-10
    _report(
        6,
        "split faces on Q8 (order/disjoint/decompose)",
        ok,
        f"reconstruction {worst_recon:.2e}",
    )


def test_criterion_07_chain_lengths():
    groups = [
        cyclic_group(4),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        symmetric_group(4),
    ]
    ok = True
    for g in groups:
        table = character_table(g)
        decomp = block_decompose(g, table, seed=0)
        for pi, d in enumerate(table.dims):
            length = maximal_chain_length(g, table, pi, decomp=decomp)
            if length != d:
                ok = False
    _report(7, "face chain lengths = block dims", ok)


def test_criterion_08_block_decomposition():
    ok = True
    worst_rel = 0.0
    worst_mult = 0.0
    for g in (dihedral_group(4), symmetric_group(4)):
        table = character_table(g)
        if sum(d * d for d in table.dims) != g.order:
            ok = False
        decomp = block_decompose(g, table, seed=0)
        n = g.order
        units = [
            (pi, j, k, unit_matrix(decomp, pi, j, k))
            for pi, d in enumerate(decomp.block_dims)
            for j in range(d)
            for k in range(d)
        ]
        for pi, j, k, e in units:
            for rho, l, m, f in units:
                expected = (
                    unit_matrix(decomp, pi, j, m)
                    if pi == rho and k == l
                    else 0.0
                )
                worst_rel = max(worst_rel, float(np.abs(e @ f - expected).max()))
        rng = np.random.default_rng(108)
        for _ in range(100):
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x, y = algebra_matrix(g, a), algebra_matrix(g, b)
            bx, by, bxy = (
                dense_from_algebra(decomp, x),
                dense_from_algebra(decomp, y),
                dense_from_algebra(decomp, x @ y),
            )
            for pi in range(decomp.num_blocks):
                worst_mult = max(
                    worst_mult, float(np.abs(bx[pi] @ by[pi] - bxy[pi]).max())
                )
    ok = ok and worst_rel < 1e-9 and worst_mult < 1e-9
    _report(
        8,
        "matrix units + multiplicativity",
        ok,
        f"relations {worst_rel:.2e}, products {worst_mult:.2e}",
    )


def test_criterion_09_jordan_round_trip():
    ok = True
    worst = 0.0
    for g in (dihedral_group(4), quaternion_group()):
        decomp = block_decompose(g, seed=0)
        rng = np.random.default_rng(109)
        for trial in range(50):
            desc = random_descriptor(decomp, rng)
            recovered = verify_jordan_form(
                lambda fn: apply_descriptor(desc, fn, decomp),
                decomp,
                seed=1000 + trial,
            )
            if recovered.sigma != desc.sigma or recovered.transpose != desc.transpose:
                ok = False
                continue
            for pi, d in enumerate(decomp.block_dims):
                if d == 1:
                    continue
                dev = float(
                    np.abs(
                        canonical_phase(desc.unitaries[pi]) - recovered.unitaries[pi]
                    ).max()
                )
                worst = max(worst, dev)
    ok = ok and worst < 1e-7
    _report(9, "Jordan descriptor recovery", ok, f"worst unitary dev {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "As stated, this criterion is unattainable: for a block of dimension "
        "d >= 2 the normalized character is the average of d distinct pure "
        "states (its GNS representation is d copies of the irreducible one), "
        "so the extremality test, which follows the irreducibility criterion, "
        "correctly reports False.  See test_criterion_10_extremality_mixtures "
        "for the constructive counterexample and the correct behavior."
    ),
)
def test_criterion_10_extremality_characters_as_stated():
    failures = []
    for g in (symmetric_group(3), dihedral_group(4), quaternion_group()):
        table = character_table(g)
        for pi, d in enumerate(table.dims):
            fn = GroupFunction(g, table.char_values(pi) / d)
            if not is_extreme(fn):
                failures.append((g.name, pi, d))
    _report(
        10,
        "normalized characters extreme (as stated)",
        not failures,
        f"non-extreme normalized characters: {failures}",
    )


def test_criterion_10_extremality_mixtures():
    rng = np.random.default_rng(110)
    ok = True
    trials = 0
    for g in (symmetric_group(3), dihedral_group(4), quaternion_group()):
        table = character_table(g)
        decomp = block_decompose(g, table, seed=0)
        done = 0
        while done < 34:  # 102 mixture trials across the three groups
            pi = int(rng.integers(0, len(table.dims)))
            rho = int(rng.integers(0, len(table.dims)))
            v1 = rng.normal(size=table.dims[pi]) + 1j * rng.normal(size=table.dims[pi])
            v2 = rng.normal(size=table.dims[rho]) + 1j * rng.normal(size=table.dims[rho])
            f1 = pure_state_function(decomp, pi, v1)
            f2 = pure_state_function(decomp, rho, v2)
            if np.abs(f1.values - f2.values).max() < 1e-6:
                continue
            t = float(rng.uniform(0.2, 0.8))
            mixture = convex_combine([t, 1 - t], [f1, f2])
            done += 1
            trials += 1
            if not (is_extreme(f1) and is_extreme(f2)):
                ok = False
            if is_extreme(mixture):
                ok = False
        # the d = 1 normalized characters are extreme (they are pure)
        for pi, d in enumerate(table.dims):
            fn = GroupFunction(g, table.char_values(pi) / d)
            if d == 1 and not is_extreme(fn):
                ok = False
            if d >= 2 and is_extreme(fn):
                ok = False  # mixtures of d pure states, correctly non-extreme
    _report(
        10,
        "pure states extreme, proper mixtures not",
        ok and trials >= 100,
        f"{trials} mixture trials",
    )


def test_criterion_11_orthogonality_and_determinism(tmp_path, capsys):
    ok = True
    checked = 0
    for g in builtin_catalog(24):
        table = character_table(g)
        sizes = np.array(table.class_sizes, dtype=float)
        gram = (table.chars * sizes) @ table.chars.conj().T / g.order
        if np.abs(gram - np.eye(table.num_irreps)).max() >= 1e-9:
            ok = False
        if sum(d * d for d in table.dims) != g.order:
            ok = False
        checked += 1

    # byte-identical CLI output under a fixed seed
    path = tmp_path / "s4.json"
    assert dispatch(["group", "build", "--kind", "symmetric:4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert dispatch(["chartable", "--in", str(path), "--seed", "7"]) == 0
    out1 = capsys.readouterr().out
    assert dispatch(["chartable", "--in", str(path), "--seed", "7"]) == 0
    out2 = capsys.readouterr().out
    with capsys.disabled():
        _report(
            11,
            "orthogonality on catalog + determinism",
            ok and out1 == out2 and len(out1) > 0,
            f"{checked} groups checked",
        )
