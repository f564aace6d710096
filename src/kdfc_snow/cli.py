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

from kdfc_snow import kdfc
from kdfc_snow.confgen import (
    MAX_ENUMERATION_BITS,
    FillBits,
    brute_force_count,
    count_configurations,
    generate_config,
    pipeline_poly,
    y_offline,
)
from kdfc_snow.gf2.linalg import check_dims, check_shape
from kdfc_snow.gf2.poly import (
    DegreeError,
    FactorTableMissError,
    exponent_list,
    is_irreducible,
    is_primitive,
    parse_exponents,
)
from kdfc_snow.sigma_lfsr import (
    CONFIG_SHAPE, SigmaConfig, annihilates, config_char_poly, period,
)
from kdfc_snow.snow2 import (
    CipherState,
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


def _dims(args) -> tuple[int, int, int]:
    """(m, b, p) of a command that reads --m, --b and --poly: m and b are
    checked before any table lookup, then p is --poly or the table's."""
    m, b = args.m, args.b
    check_dims(m, b)
    degree = m * b
    if args.poly is None:
        return m, b, pipeline_poly(degree)
    if degree > 513:  # the stages reach degree m*b - 1, the table 512
        raise ValueError(f"m*b = {degree} is above 513, the largest the table serves")
    try:
        p = parse_exponents(args.poly, degree)
        if p.bit_length() - 1 != degree:
            raise DegreeError(p.bit_length() - 1)
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
    return m, b, p


def _seeded_config(m: int, b: int, k: int, seed: str, p: int) -> SigmaConfig:
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
#: gf2.linalg.check_shape); its m and b are not read
_STATE_SHAPE = {
    "char_poly": [int],
    "config": CONFIG_SHAPE,
    "lfsr": [int],
    "fsm": {"r1": int, "r2": int},
}


def _load_state(path: str) -> CipherState:
    """Read a state document; refuse one whose configuration is not a KDFC one."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    check_shape(doc, _STATE_SHAPE, "state document")
    cfg = SigmaConfig.from_json(doc["config"])
    state = CipherState(doc["lfsr"], [doc["fsm"]["r1"], doc["fsm"]["r2"]], cfg)
    if not annihilates(cfg, kdfc.target_poly()):
        raise ValueError("state configuration lacks the target characteristic polynomial")
    if doc["char_poly"] != exponent_list(kdfc.target_poly()):
        raise ValueError("state configuration does not match the document's char_poly")
    return state


def _config_doc(cfg: SigmaConfig, char_poly: int, **fields) -> dict:
    """m, b, `fields`, then char_poly as generate_config(verify=True) certified it."""
    return {"m": cfg.m, "b": cfg.b, **fields, "char_poly": exponent_list(char_poly),
            "config": cfg.to_json()}


def _cmd_kdfc_init(args) -> int:
    state = _kdfc_state(args)
    doc = {**_config_doc(state.cfg, kdfc.target_poly()), "lfsr": state.lfsr,
           "fsm": {"r1": state.fsm[0], "r2": state.fsm[1]}}
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
    m, b, p = _dims(args)
    cfg = _seeded_config(m, b, args.k, args.seed, p)
    doc = _config_doc(cfg, p, k=args.k, seed=args.seed, polynomial=exponent_list(p))
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
        m, b, p = _dims(args)
        _seeded_config(m, b, args.k, args.seed, p)
    _emit(" ".join(map(str, exponent_list(p))), args.out)
    return 0


def _cmd_analyze_bias(args) -> int:
    from kdfc_snow import attacks  # as randtests below: only its commands load it

    eps_final = attacks.pileup_bias(args.eps_log2, args.taps)
    needed = attacks.keystream_needed(eps_final)
    _emit(f"eps_final_log2 = {eps_final!r}\nkeystream_log2 = {needed!r}", args.out)
    return 0


def _cmd_analyze_linearization(args) -> int:
    from kdfc_snow import attacks

    log2 = attacks.linearization_log2(args.n, args.degree)
    lines = [f"monomials_log2 = {log2!r}"]
    if args.exact:
        lines.append(f"monomials = {attacks.linearization_size(args.n, args.degree)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_analyze_gd(args) -> int:
    from kdfc_snow import attacks

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
    from kdfc_snow import symbolic

    report = symbolic.verify_minor_lemmas(*_dims(args))
    if args.json:
        _emit(json.dumps(report, indent=2), args.out)
    else:
        _emit(symbolic.format_report(report), args.out)
    return 0 if report["all_hold"] else 1


def _cmd_verify_theorem1(args) -> int:
    from kdfc_snow import symbolic

    m, b, p = _dims(args)
    entry, ok = symbolic.theorem1_check(m, b, p)
    want = m * b - b
    _emit(
        f"corner entry degree = {symbolic.anf_degree(entry)}\n"
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
    m, b, p = _dims(args)
    got = period(_seeded_config(m, b, args.k, args.seed, p), [1] + [0] * (b - 1))
    want = (1 << (m * b)) - 1
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

#: every option that more than one command takes, declared once
_SHARED = {
    "--key": dict(required=True, help="64 hex digits (256-bit key)"),
    "--iv": dict(required=True, help="32 hex digits (128-bit IV)"),
    "-n": dict(type=int, required=True, help="number of 32-bit words"),
    "--discard": dict(type=int, default=32,
                      help="output words discarded after reconfiguration"),
    "--y-init": dict(default=None,
                     help="path to an offline-matrix JSON document "
                          "(its k sets the offline iteration count)"),
    "--m": dict(type=int, required=True, help="word width in bits"),
    "--b": dict(type=int, required=True, help="number of delay blocks"),
    "--k": dict(type=int, default=0, help="offline iteration count"),
    "--seed": dict(required=True, help="fill-bit seed string"),
    "--poly": dict(default=None,
                   help="prescribed polynomial as exponent list, e.g. '8,4,3,2,0'"),
    "--json": dict(action="store_true", help="print the report as JSON"),
    "--out": dict(default=None, help="output file (default stdout)"),
}

_KDFC = ("--key", "--iv", "--discard", "--y-init")
_SEEDED = ("--m", "--b", "--k", "--seed", "--poly")


def _leaf(group, name: str, func, help: str, shared=(), own=None, optional=()) -> None:
    """Command `name` of `group`: the shared options it names, its own
    options (flag -> add_argument keywords), then --out; a flag in
    `optional` is not required.  No command reads an abbreviated flag, so
    --k is never taken for --key.
    """
    q = group.add_parser(name, help=help, allow_abbrev=False)
    options = {**{flag: _SHARED[flag] for flag in shared}, **(own or {}),
               "--out": _SHARED["--out"]}
    for flag, kw in options.items():
        q.add_argument(flag, **(kw | {"required": False} if flag in optional else kw))
    q.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kdfc-snow",
        description="keystream generation, configuration tooling, and analysis",
    )
    commands = top.add_subparsers(dest="cmd", required=True)

    def group(name: str, help: str):
        return commands.add_parser(name, help=help).add_subparsers(dest="sub", required=True)

    snow2 = group("snow2", "SNOW 2.0 with the public configuration")
    _leaf(snow2, "stream", _cmd_snow2_stream, "print keystream words as hex lines",
          ("--key", "--iv", "-n"))

    kd = group("kdfc", "key-dependent-configuration cipher")
    _leaf(kd, "init", _cmd_kdfc_init, "initialize and print the full state as JSON", _KDFC)
    _leaf(kd, "stream", _cmd_kdfc_stream, "print keystream words as hex lines",
          (*_KDFC, "-n"), optional=("--key", "--iv"),
          own={"--state": dict(default=None, help="resume from a state JSON file")})
    _leaf(kd, "dump-config", _cmd_kdfc_dump_config,
          "print the derived configuration as JSON", _KDFC)

    _leaf(commands, "gen-config", _cmd_gen_config, "seeded configuration generation", _SEEDED)
    _leaf(commands, "char-poly", _cmd_char_poly,
          "characteristic polynomial as an exponent list", _SEEDED,
          optional=("--m", "--b", "--seed"), own={
              "--snow2": dict(action="store_true", help="the SNOW 2.0 configuration matrix"),
              "--target": dict(action="store_true", help="the degree-512 generation target"),
          })

    an = group("analyze", "attack-cost arithmetic and search")
    _leaf(an, "bias", _cmd_analyze_bias, "pile up a linear-mask bias", own={
        "--eps-log2": dict(type=float, required=True,
                           help="log2 of the single-approximation bias (negative)"),
        "--taps": dict(type=int, required=True, help="number of XORed approximations"),
    })
    _leaf(an, "linearization", _cmd_analyze_linearization,
          "monomial count for linearization", own={
              "--n": dict(type=int, required=True, help="variable count"),
              "--degree": dict(type=int, required=True, help="max degree"),
              "--exact": dict(action="store_true", help="also print the integer"),
          })
    _leaf(an, "gd", _cmd_analyze_gd, "guess-and-determine basis search", ("--json",), own={
        "--cipher": dict(choices=["snow2", "kdfc"], default="snow2"),
        "--max-stages": dict(type=int, default=16),
    })

    _leaf(commands, "randtest", _cmd_randtest, "statistical battery over hex input", own={
        "--in": dict(dest="infile", required=True, help="hex file ('-' for stdin)"),
        "--report": dict(choices=["text", "json"], default="text"),
    })

    ve = group("verify", "structure and counting checks")
    _leaf(ve, "lemmas", _cmd_verify_lemmas, "minor degree/zero regions of symbolic Q",
          ("--m", "--b", "--poly", "--json"))
    _leaf(ve, "theorem1", _cmd_verify_theorem1,
          "corner-entry degree of the symbolic config", ("--m", "--b", "--poly"))
    _leaf(ve, "count", _cmd_verify_count, "enumeration vs counting formula", ("--m", "--b"))
    _leaf(ve, "period", _cmd_verify_period,
          "maximal period from a seeded configuration", _SEEDED)

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
