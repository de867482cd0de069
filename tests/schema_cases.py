"""Cases generated from the row tables of every JSON document a command
reads: the config (``cli._SCHEMA``), the checkpoint header, ``dataset.json``
and ``samples.json``.

A row ``(type, default, rule)`` yields a value in range, its default, each
finite bound and the value just past it, huge values, another type, ``null``,
its key left out and, for a float, a NaN; a section yields a non-object and
an unknown key. A verdict comes from the row's parts and README's two type
rules (a float row takes an int, a bool is no number), not from the checker
under test; an opaque ``Rule``'s values are listed by its text.
"""

import inspect
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from specdiff import cli

DIGEST = "0123456789abcdef" * 4
MISSING = object()  # a case's value when it leaves the key out

# each table a command reads, and a document that obeys it; the config's
# explicit beta1 keeps sigma0 from its schedule, and its betaT lets T reach
# its ceiling
TABLES = {
    "config": (cli._SCHEMA, {
        "data": {"kind": "two-deltas", "count": 1, "seed": 0},
        "schedule": {"beta1": 1e-4, "betaT": 1e-3}, "train": {"seed": 0}}),
    "header": (cli._CHECKPOINT_HEADER, {
        "format_version": 1, "step_count": 17, "param_count": 54,
        "arch": {"n": 2, "hidden": [4], "emb_dim": 8, "mean_type": "predict_x",
                 "ema_decay": 0.99},
        "config_digest": DIGEST, "schedule_digest": DIGEST,
        "schedule": {"T": 10, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1},
        "vt": {"kind": "identity", "n": 2}}),
    "dataset.json": (cli._DATASET_META, {
        "format_version": 1, "config_digest": DIGEST, "n": 2, "sigma0": 0.01,
        "vt": {"kind": "identity", "n": 2}}),
    "samples.json": (cli._SAMPLES_META, {"config_digest": DIGEST, "seed": 1}),
}
# values an opaque rule takes and values it refuses, by the rule's text
RULE_EXAMPLES = {
    "be 64 lowercase hex digits": ([DIGEST], ["abc", DIGEST.upper(), DIGEST + "0"]),
    "be a positive even number": ([2], [0, 1, 3, -2]),
    "be 'sigma0_squared' or a number": (["sigma0_squared"],
                                        ["bogus", "Sigma0_Squared"]),
}


class Case(NamedTuple):
    table: str
    where: str  # the dotted key or section that yields the case
    name: str
    doc: object  # the whole document
    verdict: str | None  # None if accepted, else "type", "finite", "rule" or "section"
    named: str | None  # what the error must say

    @property
    def id(self) -> str:
        return f"{self.table}:{self.where}:{self.name}"


def schema_rows(table=cli._SCHEMA, prefix=""):
    """Each key's dotted name and its ``(type, default, rule)`` row; a tagged
    section's tag row comes first, then each table's rows."""
    for key, row in table.items():
        if isinstance(row, dict):
            yield from schema_rows(row, f"{prefix}{key}.")
        elif isinstance(row, cli.Tagged):
            yield f"{prefix}{key}.{row.tag}", row.tag_row
            for rows in row.tables.values():
                yield from schema_rows(rows, f"{prefix}{key}.")
        else:
            yield prefix + key, row


def fits(value, types) -> bool:
    types = types if isinstance(types, tuple) else (types,)
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)


def _choices(rule):
    """The choices of a ``_one_of`` rule, else None."""
    choices = getattr(getattr(rule, "holds", None), "__self__", None)
    return choices if isinstance(choices, tuple) else None


def _each_parts(rule):
    """``(types, rule, nonempty)`` of an ``_each`` rule, else None."""
    if rule.holds.__qualname__.startswith("_each."):
        parts = inspect.getclosurevars(rule.holds).nonlocals
        return parts["types"], parts["rule"], parts["nonempty"]
    return None


def holds(rule, value) -> bool:
    if rule is None:
        return True
    if isinstance(rule, cli.Interval):
        return ((rule.lo < value if rule.open_lo else rule.lo <= value)
                and (value < rule.hi if rule.open_hi else value <= rule.hi))
    if choices := _choices(rule):
        return value in choices
    if each := _each_parts(rule):
        types, entry_rule, nonempty = each
        return (bool(value) or not nonempty) and all(
            fits(v, types) and holds(entry_rule, v) for v in value)
    return value in RULE_EXAMPLES.get(rule.text, ((), ()))[0]


def verdict(value, types, rule) -> str | None:
    """None if the row takes ``value``, else the check that refuses it."""
    if types is float and fits(value, int):  # beyond float range: not finite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not fits(value, types):
        return "type"
    if isinstance(value, float) and not math.isfinite(value):
        return "finite"
    return None if holds(rule, value) else "rule"


def other_type(types):
    """A value of another type than ``types`` (``null`` is a second): a bool,
    which is no number, or for a bool row a string."""
    return ("type-str", "1") if fits(True, types) else ("type-bool", True)


def rule_values(types, rule):
    """``(name, value)`` pairs that probe ``rule`` on a row of ``types``."""
    if isinstance(rule, cli.Interval):
        integer = types is int
        for side, bound, is_open, up in (("lo", rule.lo, rule.open_lo, False),
                                         ("hi", rule.hi, rule.open_hi, True)):
            if math.isinf(bound):
                continue
            if not is_open:
                yield f"at-{side}", bound
            past = bound + (1 if up else -1) if integer \
                else float(np.nextafter(bound, math.inf if up else -math.inf))
            yield f"past-{side}", bound if is_open else past
        if math.isinf(rule.hi):  # else past-hi probes the same bound
            yield "huge", 2 ** 40 if integer else 1e308
        yield "huge-int", 10 ** 400
    elif choices := _choices(rule):
        yield from ((f"choice-{c}", c) for c in choices)
        yield "not-a-choice", "bogus" if types is str else max(choices) + 1
    elif rule is not None and (each := _each_parts(rule)):
        entry_types, entry_rule, _ = each
        yield "empty", []
        entries = [*rule_values(entry_types, entry_rule), other_type(entry_types)]
        yield from ((f"entry-{name}", [value]) for name, value in entries
                    if name != "huge-int")  # an entry past its bound is past-hi
    elif rule is not None:
        accepted, refused = RULE_EXAMPLES.get(rule.text, ((), ()))
        yield from ((f"example-{i}", v) for i, v in enumerate(accepted))
        yield from ((f"breaks-{i}", v) for i, v in enumerate(refused))


def label(table: str, where: str) -> str:
    """How an error names the key or section ``where`` of ``table``."""
    if table == "config":
        return where or "config"
    return f"{table}.{where}" if where else table


def with_value(doc, where: str, value):
    """``doc`` with the dotted key ``where`` set to ``value`` (or left out)."""
    if not where:
        return value
    doc = json.loads(json.dumps(doc))
    *path, key = where.split(".")
    node = doc
    for part in path:
        node = node.setdefault(part, {})
    if value is MISSING:
        node.pop(key, None)
    else:
        node[key] = value
    return doc


def _row_cases(table, doc, where, row, valid):
    types, default, rule = row
    section, key = where.rpartition(".")[::2]
    name = label(table, where)
    values = [("in-range", valid)]
    if default not in (cli._NO_DEFAULT, None, valid):
        values.append(("default", default))
    values += [("null", None), *rule_values(types, rule), other_type(types)]
    if fits(math.nan, types):
        values.append(("nan", math.nan))
    yield Case(table, where, "missing", with_value(doc, where, MISSING),
               *(("section", f"{label(table, section)}: missing required key {key!r}")
                 if default is cli._NO_DEFAULT else (None, None)))
    for case, value in values:
        if case in ("in-range", "default") or value is None and default is None:
            found = None
        else:
            found = verdict(value, types, rule)
        named = {None: None, "type": f"{name}: expected ",
                 "finite": f"{name}: must be finite",
                 "rule": f"{name} must {getattr(rule, 'text', '')}"}[found]
        yield Case(table, where, case, with_value(doc, where, value), found, named)


def section_cases(table, doc, rows: dict, prefix: str = ""):
    """Every case of the section ``prefix`` (a dotted path, empty at the top)
    of ``table``'s document ``doc``, whose rows are ``rows``."""
    where = prefix.rstrip(".")
    name = label(table, where)
    section = doc
    for part in filter(None, where.split(".")):
        section = section.get(part, {})
    yield Case(table, where, "not-an-object", with_value(doc, where, ["x"]), "section",
               f"{name} must be an object")
    ignored = table != "config" and not where  # an artifact's other top-level keys
    yield Case(table, where, "unknown-key", with_value(doc, f"{prefix}spam", 1),
               *((None, None) if ignored else
                 ("section", f"{name}: unknown keys ['spam']")))
    for key, row in rows.items():
        if isinstance(row, dict):
            sub = label(table, prefix + key)
            required = [k for k, r in row.items() if isinstance(r, tuple)
                        and r[1] is cli._NO_DEFAULT]
            yield Case(table, prefix + key, "missing",
                       with_value(doc, prefix + key, MISSING),
                       *(("section", f"{sub}: missing required key {required[0]!r}")
                         if required else (None, None)))
            yield from section_cases(table, doc, row, f"{prefix}{key}.")
        elif isinstance(row, cli.Tagged):
            yield from tagged_cases(table, doc, row, prefix + key, section.get(key))
        else:
            valid = section[key] if key in section else row[1]
            yield from _row_cases(table, doc, prefix + key, row, valid)


def tagged_cases(table, doc, row: cli.Tagged, where: str, given: dict):
    name = label(table, where)
    for case, value in (("not-an-object", "x"), ("missing", MISSING)):
        yield Case(table, where, case, with_value(doc, where, value), "section",
                   f"{name} must be an object")
    for kind, rows in row.tables.items():
        # the given descriptor, or one of another kind with each row at its least
        valid = given if given[row.tag] == kind else \
            {row.tag: kind, **{key: inner[2].lo for key, inner in rows.items()}}
        kind_doc = with_value(doc, where, valid)
        if valid is given:  # each other kind is in range with its own rows
            tags = _row_cases(table, kind_doc, f"{where}.{row.tag}", row.tag_row, kind)
            yield from (case for case in tags if not case.name.startswith("choice-"))
        for key, inner in rows.items():
            yield from _row_cases(table, kind_doc, f"{where}.{key}", inner, valid[key])
        other = [key for tables in row.tables.values() for key in tables if key not in rows]
        for key in ["spam", *other]:
            yield Case(table, where, f"{kind}-with-{key}",
                       with_value(kind_doc, f"{where}.{key}", 1), "section",
                       f"{name}: unknown keys [{key!r}]")


CASES = [case for table, (rows, doc) in TABLES.items()
         for case in section_cases(table, doc, rows)]
