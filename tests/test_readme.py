"""The README's code runs as written and shows what the code returns."""

import argparse
import ast
import re
from fractions import Fraction
from pathlib import Path

from lieposet.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _fences():
    """(language, body) of every fenced block of the README, in order."""
    fences, lang, body = [], None, []
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if lang is None:
                lang, body = line[3:].strip(), []
            else:
                fences.append((lang, "\n".join(body)))
                lang = None
        elif lang is not None:
            body.append(line)
    return fences


def _shown(lines, expr):
    """The comment the README shows for the line starting with ``expr``:
    on that line, or on the next one when that line has none."""
    i = next(i for i, line in enumerate(lines) if line.startswith(expr))
    line = lines[i] if "#" in lines[i] else lines[i + 1]
    return line.split("#", 1)[1].strip()


def test_readme_quick_tour_runs_and_shows_true_values():
    tour = [body for lang, body in _fences() if lang == "python"]
    assert len(tour) == 2
    ns = {}
    for body in tour:
        exec(compile(body, str(README), "exec"), ns)
    gA, phi, rep = ns["gA"], ns["phi"], ns["rep"]
    ind = ns["index"](gA)
    coords = rep.generator_coords()
    reeb = ns["is_contact_form"](gA, phi).reeb_json()
    assert ind == 1
    half = Fraction(1, 2)
    assert coords == {(1, 1): half, (2, 2): -half, (3, 3): -half, (4, 4): half, (1, 2): 1}
    assert reeb == {"1,1": "1", "1,2": "2", "2,2": "-1", "3,3": "-1", "4,4": "1"}
    # the comments show exactly these values
    lines = tour[0].splitlines()
    assert _shown(lines, "index(gA)").split()[0] == str(ind)
    shown = re.findall(r"\((\d+),(\d+)\): (-?\d+(?:/\d+)?)", _shown(lines, "rep.generator_coords()"))
    assert {(int(i), int(j)): Fraction(v) for i, j, v in shown} == coords
    shown = _shown(lines, "is_contact_form(gA, phi).reeb_json()")
    assert ast.literal_eval(shown[: shown.index("}") + 1]) == reeb


def test_readme_cli_synopsis_matches_the_parser():
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    synopsis = [body for lang, body in _fences() if lang == "" and body.startswith("lieposet ")]
    assert len(synopsis) == 1
    lines = synopsis[0].splitlines()
    assert sorted(line.split()[1] for line in lines) == sorted(commands)
    for line in lines:
        command = line.split()[1]
        options = {o for a in commands[command]._actions for o in a.option_strings if o.startswith("--")}
        named = set(re.findall(r"--[a-z][a-z-]*", line))
        assert named <= options, (line, named - options)
        assert options - {"--json-out", "--help"} <= named, (line, options - named)
