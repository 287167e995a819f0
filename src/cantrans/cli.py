"""Command-line front end.

Every subcommand reads and writes the transducer document format, on
files or standard streams (`-` means stdin/stdout).  Exit codes:
0 success (or a true predicate), 1 a false predicate, 2 any error.

Composition order is left to right everywhere: `compose A B` builds the
map x -> (x applied to A) applied to B.
"""

import argparse
import functools
import os
import sys

from .words import Alphabet, EventuallyPeriodicPoint, WordError, format_word
from .machine import CORE, TransducerError, canonical_form, eval_point
from .minimize import minimize
from .algebra import (
    NotInvertible,
    PrefixCodeMap,
    compose,
    from_prefix_code_map,
    invert,
    twist_transducer,
)
from .synchro import core_of, sync_level, witness_pair
from .classify import classify_subgroup, is_in_Gnr, order_in_On, \
    outer_class_equal
from .document import ParseError, parse, parse_prefix_map, serialize
from .randgen import RejectionBudgetExceeded, random_gnr_element, \
    random_transducer


def _read(path):
    """The text of a file, or of stdin for '-', decoded as UTF-8.  Bytes
    that are not UTF-8 raise ParseError at their line and column."""
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:  # a text stream with no bytes underneath
            return sys.stdin.read()
        data = stream.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the text before the bad byte decodes; "?" stands for that byte
        lines = (data[:e.start].decode("utf-8") + "?").splitlines()
        where = "standard input" if path == "-" else repr(path)
        raise ParseError(len(lines), len(lines[-1]),
                         f"{where} is not UTF-8 text ({e.reason}, byte "
                         f"0x{data[e.start]:02x})") from None


def _keep_blocks(path, flags):
    """open() opener: create or open for writing without truncating, so
    an existing file keeps its blocks and is overwritten in place."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path, text):
    """Write `text` as UTF-8 to a file, or to stdout for '-'.

    A file is overwritten in place rather than truncated to zero first:
    on ext4 freeing and reallocating a small document's blocks costs
    tens of times more than rewriting them.  The file is cut after the
    bytes written only when it is longer, even when a write fails, so
    what remains is always a prefix of the new document; devices and
    FIFOs, whose size reads 0, are never cut."""
    if path == "-":
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    with open(path, "wb", buffering=0, opener=_keep_blocks) as fh:
        done = 0
        try:
            while done < len(data):
                done += fh.write(data[done:])
        finally:
            if os.fstat(fh.fileno()).st_size > done:
                fh.truncate(done)


def _load(path):
    return parse(_read(path))


def _at_least(low):
    """argparse type: an integer no smaller than `low`."""
    def check(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    return check


def _int_list(text):
    """argparse type: comma-separated integers, as a tuple."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


@functools.cache
def _parser():
    """The top-level argument parser and its verb -> subparser map,
    built on the first call and shared by every later main() call in the
    process; parsing keeps no state between calls."""
    top = argparse.ArgumentParser(
        prog="cantrans",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, help_, *specs):
        p = sub.add_parser(name, help=help_)
        for args, kwargs in specs:
            p.add_argument(*args, **kwargs)
        return p

    infile = (("file",), {"help": "transducer document ('-' for stdin)"})
    outfile = (("-o", "--output"), {"default": "-",
                                    "help": "output file (default stdout)"})

    cmd("validate", "check all non-degeneracy rules", infile)
    cmd("minimize", "reduce to the unique minimal machine", infile, outfile)
    cmd("canon", "print the canonical form", infile)
    cmd("eval", "apply the map to an eventually periodic point", infile,
        (("--point",), {"required": True,
                        "help": "point as 'preperiod | period' token lists"}),
        (("--state",), {"default": None,
                        "help": "start state (core-mode machines)"}),
        (("--depth",), {"type": _at_least(0), "default": None,
                        "help": "also print this many letters of the image"}))
    cmd("compose", "compose two machines, left to right",
        (("first",), {"help": "applied first"}),
        (("second",), {"help": "applied second"}), outfile)
    cmd("invert", "invert a homeomorphism's machine", infile, outfile)
    cmd("sync", "synchronization level, core states, or a witness pair",
        infile)
    cmd("core", "extract the core as a document", infile, outfile)
    cmd("member", "prefix-exchange group membership (exit 0 yes, 1 no)",
        infile)
    cmd("classify", "subgroup flags summary line", infile)
    cmd("order", "order of a core in the outer-class group", infile,
        (("--cap",), {"type": _at_least(1), "default": 64,
                      "help": "power search cap (default 64)"}))
    cmd("outer-eq", "same outer class? (exit 0 yes, 1 no)",
        (("first",), {}), (("second",), {}))
    cmd("make-prefix-map", "build a machine from 'eta -> zeta' lines",
        (("file",), {"help": "map file ('-' for stdin)"}),
        (("--n",), {"type": int, "required": True}),
        (("--r",), {"type": int, "required": True}), outfile)
    cmd("make-twist", "machine applying a digit permutation everywhere",
        (("--n",), {"type": int, "required": True}),
        (("--r",), {"type": int, "required": True}),
        (("--perm",), {"type": _int_list, "required": True,
                       "help": "images of 0..n-1, comma separated"}),
        outfile)
    cmd("random", "seeded random machine",
        (("--n",), {"type": int, "required": True}),
        (("--r",), {"type": int, "required": True}),
        (("--states",), {"type": _at_least(1), "default": 3}),
        (("--max-out",), {"type": _at_least(1), "default": 2}),
        (("--seed",), {"type": int, "default": 0}),
        (("--gnr",), {"action": "store_true",
                      "help": "draw a prefix-exchange map instead"}),
        outfile)
    return top, sub.choices


def _arguments(argv):
    """The parsed arguments.  A verb first goes straight to its
    subparser, which is what the top-level parser would call, and what
    that leaves over is refused with the top-level parser's words; an
    empty argv, an option first or an unknown verb goes through the
    top-level parser."""
    top, verbs = _parser()
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:
        return top.parse_args(argv)
    args, extra = verb.parse_known_args(argv[1:])
    if extra:
        top.error("unrecognized arguments: " + " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None):
    args = _arguments(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args)
    except (ParseError, WordError, TransducerError, NotInvertible,
            RejectionBudgetExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def _dispatch(args):
    if args.command == "validate":
        t = parse(_read(args.file))
        print(f"valid: {len(t.states)} states")
        return 0

    # the verbs call the library's public functions: parse marks the
    # machine it returns valid and the reduction marks what it builds
    # minimal, so no machine is validated or reduced twice; sync asks
    # for the witness pair first, whose collapse records the level or
    # that there is none, so it collapses the machine once either way
    if args.command == "minimize":
        _write(args.output, serialize(minimize(_load(args.file))))
        return 0

    if args.command == "canon":
        print(canonical_form(minimize(_load(args.file))).decode())
        return 0

    if args.command == "eval":
        t = _load(args.file)
        point = EventuallyPeriodicPoint.parse(args.point)
        image = eval_point(t, point, state=args.state)
        print(image)
        if args.depth is not None:
            print(format_word(image.expand(args.depth)))
        return 0

    if args.command == "compose":
        c = compose(_load(args.first), _load(args.second))
        _write(args.output, serialize(c))
        return 0

    if args.command == "invert":
        _write(args.output, serialize(invert(_load(args.file))))
        return 0

    if args.command == "sync":
        t = _load(args.file)
        pair = witness_pair(t)
        if pair is not None:
            print(f"not synchronizing; witness pair {pair[0]} / {pair[1]}")
            return 1
        level = sync_level(t)
        core = core_of(t)
        print(f"level: {level}")
        print("core states: " + " ".join(str(q) for q in core.states))
        return 0

    if args.command == "core":
        _write(args.output, serialize(core_of(_load(args.file))))
        return 0

    if args.command == "member":
        yes = is_in_Gnr(_load(args.file))
        print("yes" if yes else "no")
        return 0 if yes else 1

    if args.command == "classify":
        flags = classify_subgroup(_load(args.file))
        yn = lambda b: "y" if b else "n"  # noqa: E731
        print(f"G:{yn(flags.in_Gnr)} P:{yn(flags.in_Pn)} "
              f"L:{yn(flags.in_Ln)} sync-level:{flags.level} "
              f"core-states:{flags.core_states}")
        return 0

    if args.command == "order":
        t = _load(args.file)
        if t.mode != CORE:
            t = core_of(minimize(t))
        kind, k = order_in_On(t, args.cap)
        print(kind if k is None else f"{kind} {k}")
        return 0

    if args.command == "outer-eq":
        same = outer_class_equal(_load(args.first), _load(args.second))
        print("equal" if same else "different")
        return 0 if same else 1

    if args.command == "make-prefix-map":
        dom, ran = parse_prefix_map(_read(args.file))
        alphabet = Alphabet(args.n, args.r)
        t = from_prefix_code_map(PrefixCodeMap(dom, ran), alphabet)
        _write(args.output, serialize(t))
        return 0

    if args.command == "make-twist":
        t = twist_transducer(args.perm, Alphabet(args.n, args.r))
        _write(args.output, serialize(t))
        return 0

    if args.command == "random":
        alphabet = Alphabet(args.n, args.r)
        if args.gnr:
            t = random_gnr_element(alphabet, args.seed)
        else:
            t = random_transducer(alphabet, args.states, args.max_out,
                                  args.seed)
        _write(args.output, serialize(t))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
