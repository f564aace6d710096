"""Command-line front end (console script ``kdfc-snow``).

Subcommands: snow2 stream, kdfc init|stream|dump-config, gen-config,
char-poly, analyze bias|linearization|gd, randtest, verify
lemmas|theorem1|count|period.

Conventions: binary data crosses the CLI boundary as lowercase hex only;
structured artifacts are JSON; keystream prints one 8-digit word per
line.  Wherever fill bits are needed a --seed flag is mandatory, so every
invocation is reproducible byte for byte.  Exit codes: 0 success, 1
domain error or failed verification, 2 usage error.  The polynomial
table can be overridden with the KDFC_SNOW_POLY_TABLE environment
variable (see gf2.primtable).
"""

from __future__ import annotations

import argparse
import json
import sys

from kdfc_snow import attacks, kdfc, symbolic
from kdfc_snow.confgen import (
    MAX_ENUMERATION_BITS,
    FillBits,
    brute_force_count,
    count_configurations,
    generate_config,
    pipeline_poly,
    y_offline,
)
from kdfc_snow.gf2.poly import (
    DegreeError,
    FactorTableMissError,
    Gf2Poly,
    is_irreducible,
    is_primitive,
    parse_exponents,
)
from kdfc_snow.sigma_lfsr import SigmaConfig, config_char_poly, period
from kdfc_snow.snow2 import (
    CipherState,
    FsmState,
    snow2_gains,
    snow2_init,
    snow2_keystream,
)

__all__ = ["main", "build_parser"]

#: words per write of `snow2 stream` and `kdfc stream`: memory stays bounded
#: in -n, and each call's rebuild of the Galois state (64 lookups) is negligible
STREAM_CHUNK = 4096


# ---------------------------------------------------------------------------
# small codecs

def _words_from_hex(text: str, nwords: int, what: str) -> list[int]:
    digits = "".join(text.split()).lower()
    if len(digits) != 8 * nwords:
        raise ValueError(
            f"{what} must be {8 * nwords} hex digits ({32 * nwords} bits), "
            f"got {len(digits)}"
        )
    try:
        return [int(digits[8 * i : 8 * i + 8], 16) for i in range(nwords)]
    except ValueError:
        raise ValueError(f"{what} is not valid hex") from None


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_stream(state: CipherState, n: int, out: str | None) -> None:
    """n keystream words, one hex line each, written STREAM_CHUNK at a time.

    Memory stays bounded in n.  n = 0 writes nothing and creates no file.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return
    fh = sys.stdout if out is None or out == "-" else open(out, "w", encoding="utf-8")
    try:
        while n:
            words = snow2_keystream(state, min(n, STREAM_CHUNK))
            fh.write("".join(f"{w:08x}\n" for w in words))
            n -= len(words)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _resolve_poly(args, degree: int) -> Gf2Poly:
    if getattr(args, "poly", None):
        if degree > 513:  # the stages reach degree m*b - 1, the table 512
            raise ValueError(f"m*b = {degree} is above 513, the largest the table serves")
        try:
            p = parse_exponents(args.poly, degree)
            if p.degree != degree:
                raise DegreeError(p.degree)
        except DegreeError as e:
            raise ValueError(f"--poly must have degree {degree}, got {e.got}") from None
        except ValueError as e:
            raise ValueError(f"--poly {args.poly}: {e}") from None
        try:
            primitive = is_primitive(p)  # runs Rabin's test itself
        except FactorTableMissError:
            primitive = None  # no shipped factorization of 2^d - 1: irreducibility is the check
        if not primitive:
            if not is_irreducible(p):
                raise ValueError(f"--poly {args.poly} is reducible")
            if primitive is False:
                raise ValueError(f"--poly {args.poly} is irreducible but not primitive")
        return p
    return pipeline_poly(degree)


def _seeded_config(m: int, b: int, k: int, seed: str, p: Gf2Poly) -> SigmaConfig:
    total = m * b - m
    if not 0 <= k <= total:
        raise ValueError(f"--k must be in [0, {total}] for m={m}, b={b}")
    offline = FillBits.from_seed(m, k, seed, "offline-fill")
    online = FillBits.from_seed(m, total - k, seed, "online-fill")
    y = y_offline(m, b, k, offline)
    return generate_config(m, b, p, y, online, verify=True)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_snow2_stream(args) -> int:
    key = _words_from_hex(args.key, 8, "--key")
    iv = _words_from_hex(args.iv, 4, "--iv")
    _write_stream(snow2_init(key, iv), args.n, args.out)
    return 0


def _kdfc_state(args) -> CipherState:
    key = _words_from_hex(args.key, 8, "--key")
    iv = _words_from_hex(args.iv, 4, "--iv")
    doc = kdfc.load_y_init(args.y_init) if args.y_init else None
    return kdfc.kdfc_init(
        kdfc.KdfcParams(key=key, iv=iv, y_init=doc, discard=args.discard)
    )


#: the JSON shape of a state document as `kdfc init` writes it (see
#: kdfc.check_shape); its m and b are not read
_STATE_SHAPE = {
    "char_poly": [int],
    "config": {"m": int, "b": int, "gains": [kdfc.MATRIX_SHAPE]},
    "lfsr": [int],
    "fsm": {"r1": int, "r2": int},
}


def _load_state(path: str) -> CipherState:
    """Read a state document; refuse one whose configuration is not a KDFC one."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kdfc.check_shape(doc, _STATE_SHAPE, "state document")
    cfg = SigmaConfig.from_json(doc["config"])
    state = CipherState(doc["lfsr"], FsmState(doc["fsm"]["r1"], doc["fsm"]["r2"]), cfg)
    if config_char_poly(cfg) != kdfc.target_poly():
        raise ValueError("state configuration lacks the target characteristic polynomial")
    if doc["char_poly"] != kdfc.target_poly().to_json():
        raise ValueError("state configuration does not match the document's char_poly")
    return state


def _config_doc(cfg: SigmaConfig, char_poly: Gf2Poly, **fields) -> dict:
    """m, b, `fields`, then char_poly as generate_config(verify=True) certified it."""
    return {"m": cfg.m, "b": cfg.b, **fields, "char_poly": char_poly.to_json(),
            "config": cfg.to_json()}


def _cmd_kdfc_init(args) -> int:
    state = _kdfc_state(args)
    doc = {**_config_doc(state.cfg, kdfc.target_poly()), "lfsr": state.lfsr,
           "fsm": {"r1": state.fsm.r1, "r2": state.fsm.r2}}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_kdfc_stream(args) -> int:
    if args.state:
        state = _load_state(args.state)
    else:
        if not (args.key and args.iv):
            raise ValueError("kdfc stream needs --key and --iv, or --state")
        state = _kdfc_state(args)
    _write_stream(state, args.n, args.out)
    return 0


def _cmd_kdfc_dump_config(args) -> int:
    doc = _config_doc(_kdfc_state(args).cfg, kdfc.target_poly())
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_gen_config(args) -> int:
    p = _resolve_poly(args, args.m * args.b)
    cfg = _seeded_config(args.m, args.b, args.k, args.seed, p)
    doc = _config_doc(cfg, p, k=args.k, seed=args.seed, polynomial=p.to_json())
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_char_poly(args) -> int:
    if args.snow2:
        p = config_char_poly(snow2_gains())
    elif args.target:
        p = kdfc.target_poly()
    else:
        if args.m is None or args.b is None or args.seed is None:
            raise ValueError(
                "char-poly needs --snow2, --target, or --m/--b/--k/--seed"
            )
        # the config's characteristic polynomial, certified by generate_config
        p = _resolve_poly(args, args.m * args.b)
        _seeded_config(args.m, args.b, args.k, args.seed, p)
    _emit(" ".join(map(str, p.to_json())), args.out)
    return 0


def _cmd_analyze_bias(args) -> int:
    eps_final = attacks.pileup_bias(args.eps_log2, args.taps)
    needed = attacks.keystream_needed(eps_final)
    _emit(f"eps_final_log2 = {eps_final!r}\nkeystream_log2 = {needed!r}", args.out)
    return 0


def _cmd_analyze_linearization(args) -> int:
    log2 = attacks.linearization_log2(args.n, args.degree)
    lines = [f"monomials_log2 = {log2!r}"]
    if args.exact:
        lines.append(f"monomials = {attacks.linearization_size(args.n, args.degree)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_analyze_gd(args) -> int:
    if args.cipher == "snow2":
        tables = attacks.build_snow2_tables()
    else:
        tables = attacks.build_kdfc_tables()
    doc = {"cipher": args.cipher, "node_count": tables.node_count}
    try:
        path = attacks.gd_search(tables, args.max_stages)
        doc.update(
            found=True,
            basis=list(path.nodes),
            basis_size=len(path),
            guess_complexity_log2=path.guess_complexity_log2(),
        )
    except attacks.NoCoverError as e:
        doc.update(
            found=False,
            stages=args.max_stages,
            best_path=list(e.best.nodes),
            eliminated=e.eliminated,
        )
    if args.json:
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"{k} = {v}" for k, v in doc.items()]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_randtest(args) -> int:
    from kdfc_snow import randtests  # numpy: only this command pays its import

    if args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    bits = randtests.bits_from_hex(text)
    results = randtests.run_battery(bits)
    all_passed = all(r.passed for r in results)
    if args.report == "json":
        doc = {
            "bits": int(bits.size),
            "results": [
                {"name": r.name, "p_value": r.p_value, "passed": r.passed}
                for r in results
            ],
            "all_passed": all_passed,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [
            f"{r.name:26s} p={r.p_value:.6f} {'PASS' if r.passed else 'FAIL'}"
            for r in results
        ]
        lines.append(
            f"{'all tests passed' if all_passed else 'some tests FAILED'}"
            f" ({bits.size} bits)"
        )
        _emit("\n".join(lines), args.out)
    return 0 if all_passed else 1


def _cmd_verify_lemmas(args) -> int:
    p = _resolve_poly(args, args.m * args.b)
    report = symbolic.verify_minor_lemmas(args.m, args.b, p)
    if args.json:
        _emit(json.dumps(report, indent=2), args.out)
    else:
        _emit(symbolic.format_report(report), args.out)
    return 0 if report["all_hold"] else 1


def _cmd_verify_theorem1(args) -> int:
    p = _resolve_poly(args, args.m * args.b)
    entry, ok = symbolic.theorem1_check(args.m, args.b, p)
    want = args.m * args.b - args.b
    _emit(
        f"corner entry degree = {entry.degree}\n"
        f"expected degree     = {want}\n"
        f"{'PASS' if ok else 'FAIL'}",
        args.out,
    )
    return 0 if ok else 1


def _decimal(n: int) -> str:
    """n >= 0 in base 10, also beyond the interpreter's int-to-str digit
    limit (4,300 digits by default): 500 digits at a time."""
    chunks = []
    while n >= 10**500:
        n, low = divmod(n, 10**500)
        chunks.append(f"{low:0500d}")
    return str(n) + "".join(reversed(chunks))


def _cmd_verify_count(args) -> int:
    formula = count_configurations(args.m, args.b)
    nbits = args.m * args.m * args.b
    if nbits > MAX_ENUMERATION_BITS:
        _emit(
            f"formula     = {_decimal(formula)}\n"
            f"enumeration skipped: 2^{nbits} gain tuples exceed the limit of "
            f"2^{MAX_ENUMERATION_BITS}",
            args.out,
        )
        return 0
    brute = brute_force_count(args.m, args.b)
    ok = formula == brute
    _emit(
        f"formula     = {formula}\n"
        f"enumeration = {brute}\n"
        f"{'PASS' if ok else 'FAIL'}",
        args.out,
    )
    return 0 if ok else 1


def _cmd_verify_period(args) -> int:
    p = _resolve_poly(args, args.m * args.b)
    cfg = _seeded_config(args.m, args.b, args.k, args.seed, p)
    got = period(cfg, [1] + [0] * (args.b - 1))
    want = (1 << (args.m * args.b)) - 1
    ok = got == want
    _emit(
        f"period   = {got}\n"
        f"expected = {want}\n"
        f"single orbit covers every nonzero state: {'PASS' if ok else 'FAIL'}",
        args.out,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser

def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_key_iv(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--key", required=required, help="64 hex digits (256-bit key)")
    p.add_argument("--iv", required=required, help="32 hex digits (128-bit IV)")


def _add_kdfc_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--discard", type=int, default=32,
                   help="output words discarded after reconfiguration")
    p.add_argument("--y-init", default=None,
                   help="path to an offline-matrix JSON document "
                        "(its k sets the offline iteration count)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kdfc-snow",
        description="keystream generation, configuration tooling, and analysis",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("snow2", help="SNOW 2.0 with the public configuration")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("stream", help="print keystream words as hex lines")
    _add_key_iv(q)
    q.add_argument("-n", type=int, required=True, help="number of 32-bit words")
    _add_out(q)
    q.set_defaults(func=_cmd_snow2_stream)

    p = sub.add_parser("kdfc", help="key-dependent-configuration cipher")
    s2 = p.add_subparsers(dest="sub", required=True)
    # no abbreviations: the removed --k must not be read as --key
    q = s2.add_parser("init", allow_abbrev=False,
                      help="initialize and print the full state as JSON")
    _add_key_iv(q)
    _add_kdfc_knobs(q)
    _add_out(q)
    q.set_defaults(func=_cmd_kdfc_init)
    q = s2.add_parser("stream", allow_abbrev=False,
                      help="print keystream words as hex lines")
    _add_key_iv(q, required=False)
    _add_kdfc_knobs(q)
    q.add_argument("--state", default=None, help="resume from a state JSON file")
    q.add_argument("-n", type=int, required=True, help="number of 32-bit words")
    _add_out(q)
    q.set_defaults(func=_cmd_kdfc_stream)
    q = s2.add_parser("dump-config", allow_abbrev=False,
                      help="print the derived configuration as JSON")
    _add_key_iv(q)
    _add_kdfc_knobs(q)
    _add_out(q)
    q.set_defaults(func=_cmd_kdfc_dump_config)

    q = sub.add_parser("gen-config", help="seeded configuration generation")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--k", type=int, default=0, help="offline iteration count")
    q.add_argument("--seed", required=True, help="fill-bit seed string")
    q.add_argument("--poly", default=None,
                   help="prescribed polynomial as exponent list, e.g. '8,4,3,2,0'")
    _add_out(q)
    q.set_defaults(func=_cmd_gen_config)

    q = sub.add_parser("char-poly",
                       help="characteristic polynomial as an exponent list")
    q.add_argument("--snow2", action="store_true",
                   help="the SNOW 2.0 configuration matrix")
    q.add_argument("--target", action="store_true",
                   help="the degree-512 generation target")
    q.add_argument("--m", type=int)
    q.add_argument("--b", type=int)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--seed")
    q.add_argument("--poly", default=None)
    _add_out(q)
    q.set_defaults(func=_cmd_char_poly)

    p = sub.add_parser("analyze", help="attack-cost arithmetic and search")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("bias", help="pile up a linear-mask bias")
    q.add_argument("--eps-log2", type=float, required=True,
                   help="log2 of the single-approximation bias (negative)")
    q.add_argument("--taps", type=int, required=True,
                   help="number of XORed approximations")
    _add_out(q)
    q.set_defaults(func=_cmd_analyze_bias)
    q = s2.add_parser("linearization", help="monomial count for linearization")
    q.add_argument("--n", type=int, required=True, help="variable count")
    q.add_argument("--degree", type=int, required=True, help="max degree")
    q.add_argument("--exact", action="store_true", help="also print the integer")
    _add_out(q)
    q.set_defaults(func=_cmd_analyze_linearization)
    q = s2.add_parser("gd", help="guess-and-determine basis search")
    q.add_argument("--cipher", choices=["snow2", "kdfc"], default="snow2")
    q.add_argument("--max-stages", type=int, default=16)
    q.add_argument("--json", action="store_true")
    _add_out(q)
    q.set_defaults(func=_cmd_analyze_gd)

    q = sub.add_parser("randtest", help="statistical battery over hex input")
    q.add_argument("--in", dest="infile", required=True,
                   help="hex file ('-' for stdin)")
    q.add_argument("--report", choices=["text", "json"], default="text")
    _add_out(q)
    q.set_defaults(func=_cmd_randtest)

    p = sub.add_parser("verify", help="structure and counting checks")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("lemmas", help="minor degree/zero regions of symbolic Q")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--poly", default=None)
    q.add_argument("--json", action="store_true")
    _add_out(q)
    q.set_defaults(func=_cmd_verify_lemmas)
    q = s2.add_parser("theorem1", help="corner-entry degree of the symbolic config")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--poly", default=None)
    _add_out(q)
    q.set_defaults(func=_cmd_verify_theorem1)
    q = s2.add_parser("count", help="enumeration vs counting formula")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=_cmd_verify_count)
    q = s2.add_parser("period", help="maximal period from a seeded configuration")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--seed", required=True)
    q.add_argument("--poly", default=None)
    _add_out(q)
    q.set_defaults(func=_cmd_verify_period)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
