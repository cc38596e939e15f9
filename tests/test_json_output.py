"""JSON output without the pure-Python encoder, and text lines built only
for text output.

`cli.json_text` must print exactly what `json.dumps(payload, indent=2)`
prints: on the payload of every golden `--format json` case, and on seeded
random nested payloads with non-ASCII text, control characters, quotes,
backslashes, empty and nested-empty containers, tuples, bools, None,
negative ints and ints past 4,300 digits.  A float value or a key that is
no string raises TypeError.  Under `--format json`, `dp-exact`, `verify`
and `compare` build no text line: their lines are a generator that `main`
never starts.  Their text output is pinned by the golden text cases.
"""

import inspect
import json
import random
import sys

import pytest

from dpchroma import cli
from dpchroma.cli import json_text, main, parse_args

from test_golden import CASES, GOLDEN_DIR

JSON_CASES = sorted(name for name, argv in CASES.items() if argv[-2:] == ["--format", "json"])

# quotes, a backslash, a slash, every control character, DEL, Latin-1,
# CJK, the two line separators and a character past the BMP (escaped as a
# surrogate pair)
ALPHABET = '"\\/' + "".join(map(chr, range(32))) + "\x7faZ0 \xe9\xdf\u4e2d\u2028\u2029\U0001f600"


def test_every_json_case_is_found():
    assert JSON_CASES == sorted(name for name in CASES if name.endswith("-json"))
    assert len(JSON_CASES) == 15


@pytest.mark.parametrize("name", JSON_CASES)
def test_every_golden_json_payload_prints_as_json_dumps(name, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    args = parse_args(list(CASES[name]))
    payload = args.func(args)[0]
    assert json_text(payload) == json.dumps(payload, indent=2)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(8)))


def random_value(rng: random.Random, depth: int = 0):
    """A nested payload; one key in about fifty is an int."""
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice((0, -1, rng.randrange(-(10**30), 10**30), 7**5200, -(10**4400) - rng.randrange(10**6)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(([], {}, (), [[]], {"": {}}, [{}, ()], ((),)))
    if kind == 4:
        return str(rng.randrange(-(10**12), 10**12))
    if kind in (5, 6, 7):
        size = rng.randrange(5)
        keys = [rng.randrange(9) if rng.random() < 0.02 else random_text(rng) for _ in range(size)]
        return {key: random_value(rng, depth + 1) for key in keys}
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return tuple(items) if kind == 8 else items


def kinds(value) -> set[str]:
    """The type names in a payload, an int key as "int key"."""
    found, items = {type(value).__name__}, ()
    if isinstance(value, dict):
        found.update("int key" for key in value if isinstance(key, int))
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    for item in items:
        found |= kinds(item)
    return found


def test_random_payloads_print_as_json_dumps():
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as `main` does, so both print long ints
    try:
        rng, seen, refused = random.Random(50), set(), 0
        for _ in range(500):
            value = random_value(rng)
            found = kinds(value)
            seen |= found
            if "int key" in found:  # json.dumps would print it as a string
                with pytest.raises(TypeError):
                    json_text(value)
                refused += 1
            else:
                assert json_text(value) == json.dumps(value, indent=2)
        assert {"str", "int", "bool", "NoneType", "dict", "list", "tuple"} <= seen
        assert 0 < refused < 100
    finally:
        sys.set_int_max_str_digits(digits)


def test_every_character_quotes_as_json_dumps():
    text = ALPHABET + "".join(map(chr, range(0x80, 0x800)))
    assert json_text({text: [text]}) == json.dumps({text: [text]}, indent=2)


@pytest.mark.parametrize("value", ({"value": 1.5}, [0.0], {1: "x"}, {"a": {2: []}}, {None: 1}, [b"x"], {"s": {1}}))
def test_a_float_or_a_key_that_is_no_string_raises_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)


@pytest.fixture
def returned_lines(monkeypatch):
    """The text lines each `dp-exact`, `verify` and `compare` call returns
    to `main`, in call order."""
    seen = []
    for name in ("dp-exact", "verify", "compare"):
        keywords, command, arguments = cli.COMMANDS[name]

        def recording(args, command=command):
            payload, lines, *status = command(args)
            seen.append(lines)
            return payload, lines, *status

        monkeypatch.setitem(cli.COMMANDS, name, (keywords, recording, arguments))
    return seen


@pytest.mark.parametrize(
    "argv",
    (
        ["dp-exact", "theta:2,2,3", "--m", "3"],
        ["verify", "--suite", "precolor", "--seed", "7"],
        ["compare", "theta:2,2,3", "--m", "2..5"],
        ["compare", "theta:2,2,2", "--m", "1..4", "--format", "text"],
    ),
)
def test_text_lines_are_built_only_for_text_output(argv, returned_lines, capsys):
    json_argv = [a for a in argv if a not in ("--format", "text")] + ["--format", "json"]
    assert main(json_argv) == 0
    assert inspect.getgeneratorstate(returned_lines[-1]) == inspect.GEN_CREATED
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert main(argv) == 0
    assert inspect.getgeneratorstate(returned_lines[-1]) == inspect.GEN_CLOSED
    assert capsys.readouterr().out.strip()


def test_dp_exact_json_makes_no_json_dumps_call(monkeypatch, capsys):
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    assert main(["dp-exact", "theta:2,2,3", "--m", "3", "--format", "json"]) == 0
    assert calls == []
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert main(["dp-exact", "theta:2,2,3", "--m", "3"]) == 0
    assert len(calls) == 1  # the text output's witness line
    assert json.loads(capsys.readouterr().out.splitlines()[1]) == witness
