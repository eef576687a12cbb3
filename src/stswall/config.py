"""Case configuration: typed container plus the flat INI file format.

The file format uses section headers and ``key = value`` pairs
(`configparser` syntax).  Closed-form boundary forcing is written as an
expression in ``t`` using the functions sin/cos/tan/exp/sqrt/log/abs and
the constant pi; series-backed forcing names a CSV path and columns.  The
full schema is documented in the README.
"""
from __future__ import annotations

import ast
import configparser
import math
import operator
import os
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import ConfigError
from .model import (
    C_WATER, RHO_WATER, BiotSet, CoefficientModel, DimensionlessGroups, SideForcing, _zero,
    builtin_material,
)
from .series import ingest_boundary_series

_EXPR_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
                   "sqrt": math.sqrt, "log": math.log, "abs": abs}
_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.Mod: operator.mod, ast.Pow: operator.pow,
             ast.UAdd: operator.pos, ast.USub: operator.neg}

_DURATION_UNITS = {"s": 1.0, "min": 60.0, "h": 3600.0, "d": 86400.0}

# Layer layouts of the drying study, by name: (material name, thickness in m).
PHYSICAL_LAYOUTS = {
    "ins_re": [("ins", 0.125), ("re", 0.5)],
    "re_ins": [("re", 0.5), ("ins", 0.125)],
    "re": [("re", 0.5)],
}

# Sections a case kind never reads, by name before any ".": each is a
# configuration error rather than silently ignored.
_UNREAD_SECTIONS = {"physical": ("groups", "biot", "forcing", "initial", "sweep"),
                    "verification": ("physical",)}


def _forcing_node(node, expr: str):
    """``node`` checked against the forcing grammar, with float literals and
    its constant parts folded, so that a constant overflow fails here."""
    kind = type(node)
    if kind is ast.Name and node.id in ("t", "pi"):
        return node if node.id == "t" else ast.Constant(math.pi)
    if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _EXPR_FUNCTIONS
            and not node.keywords and ast.Starred not in map(type, node.args)):
        node.args = [_forcing_node(arg, expr) for arg in node.args]
        return node
    if kind is ast.Constant and type(node.value) in (int, float):
        fn, operands = float, [node]
    elif kind is ast.UnaryOp and type(node.op) in _EXPR_OPS:
        node.operand = _forcing_node(node.operand, expr)
        fn, operands = _EXPR_OPS[type(node.op)], [node.operand]
    elif kind is ast.BinOp and type(node.op) in _EXPR_OPS:
        node.left, node.right = _forcing_node(node.left, expr), _forcing_node(node.right, expr)
        fn, operands = _EXPR_OPS[type(node.op)], [node.left, node.right]
    else:
        raise ConfigError(f"forcing expression {expr!r} uses {ast.unparse(node)!r}: only numbers, "
                          f"t, pi, arithmetic and calls of {', '.join(_EXPR_FUNCTIONS)} are allowed")
    if any(type(x) is not ast.Constant for x in operands):
        return node
    try:
        value = fn(*(x.value for x in operands))
    except (ArithmeticError, ValueError):
        value = None
    if type(value) is not float:
        raise ConfigError(f"forcing expression {expr!r} has a constant part with no real value")
    return ast.Constant(value)


# The compiled forcing function; its ``float(0)`` is replaced by the expression.
_FORCING_SOURCE = """def forcing(t):
    try:
        return float(0)
    except errors as exc:
        raise ConfigError(f"forcing expression {expr!r} fails at t={t!r}: {exc}") from None
"""


def parse_time_function(expr: str):
    """Compile a closed-form forcing expression of ``t`` into a function.

    Allowed: numbers (read as floats), ``t``, ``pi``, ``+ - * / % **`` and positional
    calls of :data:`_EXPR_FUNCTIONS`; anything else, or a constant part that
    overflows, is a :class:`ConfigError`.  So is a value the function fails to
    compute at some ``t`` (``log(0)``, ``1/0``, a complex power, an overflow)."""
    tree = ast.parse(_FORCING_SOURCE)
    try:
        body = _forcing_node(ast.parse(expr, mode="eval").body, expr)
        tree.body[0].body[0].body[0].value.args = [body]
        code = compile(ast.fix_missing_locations(tree), "<forcing>", "exec")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"bad forcing expression {expr!r}: {exc}") from None
    namespace = {"__builtins__": {"float": float}, **_EXPR_FUNCTIONS, "expr": expr,
                 "errors": (ArithmeticError, ValueError, TypeError), "ConfigError": ConfigError}
    exec(code, namespace)
    fn = namespace["forcing"]
    fn.expression = expr
    return fn


def _number(text, kind=float, shown=None):
    """``kind(text)``, or a ConfigError naming ``shown`` (by default the text)."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"not a number: {str(text if shown is None else shown).strip()!r}") from None


def _boolean(text) -> bool:
    """A configparser boolean (yes/no, true/false, on/off, 1/0), else a ConfigError."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if value is None:
        raise ConfigError(f"not a boolean: {text.strip()!r}")
    return value


def parse_duration(text, default_unit: str = "s") -> float:
    """Seconds from a duration literal like '365d', '2h', '30min', '7200'."""
    if isinstance(text, (int, float)):
        return float(text) * _DURATION_UNITS[default_unit]
    s = str(text).strip().lower()
    for unit in ("min", "d", "h", "s"):
        if s.endswith(unit):
            return _number(s[: -len(unit)], shown=text) * _DURATION_UNITS[unit]
    return _number(s, shown=text) * _DURATION_UNITS[default_unit]


def _float_list(text) -> list:
    return [_number(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]


def parse_float(text, what: str) -> float:
    """The one number in ``text``; ``what`` names it in the error."""
    vals = _float_list(text)
    if len(vals) != 1:
        raise ConfigError(f"{what} needs one number, got {str(text).strip()!r}")
    return vals[0]


def parse_int_list(text) -> list:
    """Whole numbers from a comma list like '10,20'."""
    vals = _float_list(text)
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"expected whole numbers, got {str(text).strip()!r}")
    return [int(v) for v in vals]


def _str_list(text) -> list:
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


@dataclass
class CaseConfig:
    """Everything a case runner needs, with a plain-data mirror for the manifest."""

    kind: str
    title: str = ""
    dx: float = 0.01
    tau: float = 1.0
    schemes: list = dc_field(default_factory=lambda: ["euler", "df", "rkc", "rkl"])
    ns: dict = dc_field(default_factory=lambda: {"rkc": 10, "rkl": 20})
    damping_rkc: float = 0.0
    dt_euler: Optional[float] = None      # None: derive from the operator estimate
    dt_df: Optional[float] = None
    dt_exp_base: Optional[float] = None   # schedule base; None: dt_euler, else operator estimate
    groups: Optional[DimensionlessGroups] = None
    materials: dict = dc_field(default_factory=dict)
    layers: list = dc_field(default_factory=list)          # (material name, thickness)
    initial_u: object = 1.0                                 # scalar or per-layer list
    initial_v: object = 1.0
    forcing_left: Optional[SideForcing] = None
    forcing_right: Optional[SideForcing] = None
    admissible_box: Optional[tuple] = None
    dump_matrix: bool = False
    sweep_ns: list = dc_field(default_factory=lambda: [10, 20, 40, 80])
    sweep_schemes: list = dc_field(default_factory=lambda: ["rkc", "rkl"])
    physical_configurations: list = dc_field(default_factory=lambda: ["ins_re", "re_ins", "re"])
    drying_scheme: str = "rkl"
    climate_path: Optional[str] = None    # None: write the synthetic series
    latent_heat: float = 2.5e6
    description: dict = dc_field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in ("verification", "physical"):
            raise ConfigError(f"unknown case kind {self.kind!r}")
        for name in ("tau", "dx", "dt_euler", "dt_df", "dt_exp_base"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")
        if self.kind == "physical" and self.tau == 0:
            raise ConfigError("physical cases need tau > 0")
        if self.dx <= 0:
            raise ConfigError("dx must be positive")
        known = {"euler", "df", "rkc", "rkl"}
        for s in self.schemes:
            if s not in known:
                raise ConfigError(f"unknown scheme {s!r}; choose from {sorted(known)}")
        if not self.layers:
            raise ConfigError("wall needs at least one layer")
        for name, _ in self.layers:
            if name not in self.materials:
                raise ConfigError(f"layer references unknown material {name!r}")
        if not self.physical_configurations:
            raise ConfigError("physical configurations must name at least one layout")
        for name in self.physical_configurations:
            if name not in PHYSICAL_LAYOUTS:
                raise ConfigError(f"unknown physical configuration {name!r}; "
                                  f"choose from {sorted(PHYSICAL_LAYOUTS)}")
            missing = [m for m, _ in PHYSICAL_LAYOUTS[name] if m not in self.materials]
            if self.kind == "physical" and missing:
                raise ConfigError(f"physical configuration {name!r} needs material {missing[0]!r}, "
                                  "which [materials] does not define")


def _parse_material(section_values: dict, name: str) -> CoefficientModel:
    keys = ("d_theta", "d_t", "c_t", "k_t", "k_tm")
    spec = {}
    for key in keys:
        raw = section_values.get(f"{name}.{key}")
        if raw is None:
            raise ConfigError(f"material {name!r} is missing coefficient {key}")
        vals = _float_list(raw)
        spec[key] = vals[0] if len(vals) == 1 else vals
    return CoefficientModel.polynomials(name, **spec)


def _parse_forcing(cp: configparser.ConfigParser, section: str, base_dir) -> SideForcing:
    if not cp.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    sec = cp[section]
    kind = sec.get("kind", "robin").strip().lower()
    series = None
    if "series" in sec:
        path = sec["series"].strip()
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        series = ingest_boundary_series(path)

    def value_fn(key, default=None):
        raw = sec.get(key, default)
        if raw is None:
            return _zero
        raw = raw.strip()
        if series is not None and raw in series.columns:
            return series.interpolator(raw)
        return parse_time_function(raw)

    u_fn = value_fn("u", "1")
    v_fn = value_fn("v", "1")
    if kind == "dirichlet":
        return SideForcing.dirichlet(u_fn, v_fn)
    return SideForcing.robin(
        u_fn, v_fn,
        psat_inf=value_fn("psat_inf"),
        g_inf=value_fn("g_inf"),
        flux_m=value_fn("flux_m"),
        flux_t=value_fn("flux_t"),
    )


def _parse_biot(cp: configparser.ConfigParser, section: str) -> BiotSet:
    if not cp.has_section(section):
        return BiotSet()
    sec = cp[section]
    return BiotSet(**{key: sec.getfloat(key, 0.0) for key in
                      ("m_sat", "m_theta", "t_t", "t_sat", "t_theta", "t_g")})


def load_config(path) -> CaseConfig:
    """Parse an INI case file into a :class:`CaseConfig`."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   converters={"float": _number, "int": lambda text: _number(text, int),
                                               "boolean": _boolean})
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    base_dir = os.path.dirname(os.path.abspath(path))
    if not cp.has_section("case"):
        raise ConfigError("config needs a [case] section")
    kind = cp["case"].get("kind", "verification").strip().lower()
    cfg = CaseConfig(kind=kind, title=cp["case"].get("title", "").strip())

    if cp.has_section("grid"):
        cfg.dx = cp["grid"].getfloat("dx", cfg.dx)
    if cp.has_section("time"):
        sec = cp["time"]
        if "tau" in sec:
            cfg.tau = parse_duration(sec["tau"])
        if "dt_euler" in sec:
            cfg.dt_euler = parse_duration(sec["dt_euler"])
        if "dt_df" in sec:
            cfg.dt_df = parse_duration(sec["dt_df"])
        if "dt_exp" in sec and sec["dt_exp"].strip().lower() != "auto":
            cfg.dt_exp_base = parse_duration(sec["dt_exp"])
    if cp.has_section("schemes"):
        sec = cp["schemes"]
        if "run" in sec:
            cfg.schemes = _str_list(sec["run"])
        cfg.ns = {
            "rkc": sec.getint("ns_rkc", cfg.ns["rkc"]),
            "rkl": sec.getint("ns_rkl", cfg.ns["rkl"]),
        }
        cfg.damping_rkc = sec.getfloat("damping_rkc", cfg.damping_rkc)
    rho2 = cp.getfloat("constants", "rho2", fallback=RHO_WATER)
    c2 = cp.getfloat("constants", "c2", fallback=C_WATER)
    cfg.latent_heat = cp.getfloat("constants", "latent_heat", fallback=cfg.latent_heat)

    for section in cp.sections():
        if section.partition(".")[0] in _UNREAD_SECTIONS.get(kind, ()):
            raise ConfigError(f"[{section}] does not apply to {kind} cases, which never read it")
    if kind == "verification" and cp.has_option("constants", "latent_heat"):
        raise ConfigError("[constants] latent_heat does not apply to verification cases, "
                          "which never read it")
    if kind == "physical" and cp.getboolean("output", "dump_matrix", fallback=False):
        raise ConfigError("[output] dump_matrix does not apply to physical cases")
    if cp.has_section("groups"):
        sec = cp["groups"]
        cfg.groups = DimensionlessGroups(
            fo_m=sec.getfloat("fo_m", 1.0),
            fo_t=sec.getfloat("fo_t", 1.0),
            gamma=sec.getfloat("gamma", 0.0),
            delta=sec.getfloat("delta", 0.0),
            alpha=sec.getfloat("alpha", 0.0),
            biot_left=_parse_biot(cp, "biot.left"),
            biot_right=_parse_biot(cp, "biot.right"),
        )

    if cp.has_section("materials"):
        sec = dict(cp["materials"])
        names = _str_list(sec.get("names", ""))
        if not names:
            names = sorted({key.split(".")[0] for key in sec if key != "names"})
        for name in names:
            if name in sec and "." not in name:
                cfg.materials[name] = builtin_material(sec[name].strip(), rho2, c2)
            else:
                cfg.materials[name] = _parse_material(sec, name)
    if cp.has_section("wall"):
        for token in _str_list(cp["wall"].get("layers", "")):
            name, _, thick = token.partition(":")
            if not thick:
                raise ConfigError(f"layer token {token!r} must look like name:thickness")
            cfg.layers.append((name.strip(), _number(thick)))
    if cp.has_section("initial"):
        sec = cp["initial"]
        for key, attr in (("u", "initial_u"), ("v", "initial_v")):
            if key in sec:
                vals = _float_list(sec[key])
                setattr(cfg, attr, vals[0] if len(vals) == 1 else vals)
    if cp.has_section("forcing.left"):
        cfg.forcing_left = _parse_forcing(cp, "forcing.left", base_dir)
    if cp.has_section("forcing.right"):
        cfg.forcing_right = _parse_forcing(cp, "forcing.right", base_dir)
    if cp.has_section("output"):
        sec = cp["output"]
        cfg.dump_matrix = sec.getboolean("dump_matrix", cfg.dump_matrix)
    if cp.has_section("sweep"):
        sec = cp["sweep"]
        if "ns" in sec:
            cfg.sweep_ns = parse_int_list(sec["ns"])
        if "schemes" in sec:
            cfg.sweep_schemes = _str_list(sec["schemes"])
    if cp.has_section("physical"):
        sec = cp["physical"]
        if "configurations" in sec:
            cfg.physical_configurations = _str_list(sec["configurations"])
        cfg.drying_scheme = sec.get("drying_scheme", cfg.drying_scheme).strip()
        climate = sec.get("climate", "").strip()
        cfg.climate_path = None if climate in ("", "synthetic") else climate
    if cp.has_section("box"):
        keys = ("u_min", "u_max", "v_min", "v_max")
        if not all(key in cp["box"] for key in keys):
            raise ConfigError(f"[box] needs all of {', '.join(keys)}")
        cfg.admissible_box = tuple(cp["box"].getfloat(key) for key in keys)

    cfg.description = {"source": str(path), "kind": kind, "title": cfg.title}
    cfg.validate()
    return cfg
