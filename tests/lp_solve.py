"""Solve exported LP text with an external MILP solver (HiGHS via scipy).

The package only ever writes the program; tests use this bridge to
check exported models against brute force and to obtain optimal seed
counts for the optimality gate.
"""

import re

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

_TERM = re.compile(r"([+-])\s*([0-9][0-9.eE+-]*|\.[0-9][0-9.eE+-]*)?\s*(x_[A-Za-z0-9_]+)")


def parse_lp(text):
    """Parse the minimize / subject-to(>=) / binaries dialect we export."""
    mode = None
    objective_lines, constraint_texts, binaries = [], [], []
    pending = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low == "minimize":
            mode = "obj"
            continue
        if low == "subject to":
            mode = "cons"
            continue
        if low in ("binaries", "binary", "bin"):
            mode = "bin"
            continue
        if low == "end":
            break
        if mode == "obj":
            objective_lines.append(line)
        elif mode == "cons":
            if re.match(r"^[A-Za-z0-9_]+:", line):
                if pending:
                    constraint_texts.append(" ".join(pending))
                pending = [line]
            else:
                pending.append(line)
        elif mode == "bin":
            binaries.extend(line.split())
    if pending:
        constraint_texts.append(" ".join(pending))

    index = {name: i for i, name in enumerate(binaries)}

    def terms(expr):
        if not expr.lstrip().startswith(("+", "-")):
            expr = "+ " + expr
        parsed = []
        for sign, coeff, name in _TERM.findall(expr):
            value = float(coeff) if coeff else 1.0
            parsed.append((index[name], value if sign == "+" else -value))
        return parsed

    c = np.zeros(len(binaries))
    for i, value in terms(" ".join(objective_lines).split(":", 1)[1]):
        c[i] += value
    rows, cols, vals, lower = [], [], [], []
    for ci, text_row in enumerate(constraint_texts):
        _, rest = text_row.split(":", 1)
        lhs, rhs = rest.rsplit(">=", 1)
        for i, value in terms(lhs):
            rows.append(ci)
            cols.append(i)
            vals.append(value)
        lower.append(float(rhs))
    matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(len(constraint_texts), len(binaries)))
    return c, matrix, np.array(lower), binaries


def solve_lp_minimum(text, time_limit=300):
    """Optimal objective value (seed count) of an exported program."""
    c, matrix, lower, _ = parse_lp(text)
    result = milp(
        c,
        constraints=LinearConstraint(matrix, lower, np.inf),
        integrality=np.ones_like(c),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit, "mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"MILP did not solve to optimality: {result.message}")
    return round(result.fun)


def _activation_arrays(graph, rounds):
    """Round-indexed activation constraints straight from a graph."""
    n = len(graph)
    nvars = n * (rounds + 1)

    def var(i, t):
        return i * (rounds + 1) + t

    rows, cols, vals, lower, upper = [], [], [], [], []
    ci = 0
    incoming = graph.in_edges
    for i in range(n):
        theta = graph.theta[i]
        for t in range(1, rounds + 1):
            for j, w in incoming[i]:
                rows.append(ci)
                cols.append(var(j, t - 1))
                vals.append(w)
            rows.append(ci)
            cols.append(var(i, t - 1))
            vals.append(theta)
            rows.append(ci)
            cols.append(var(i, t))
            vals.append(-theta)
            lower.append(0.0)
            upper.append(np.inf)
            ci += 1
            rows.append(ci)
            cols.append(var(i, t))
            vals.append(1.0)
            rows.append(ci)
            cols.append(var(i, t - 1))
            vals.append(-1.0)
            lower.append(0.0)
            upper.append(np.inf)
            ci += 1
    return n, nvars, var, rows, cols, vals, lower, upper, ci


def max_coverage(graph, rounds, budget, time_limit=300):
    """Exact maximum number of nodes activatable with a seed budget."""
    n, nvars, var, rows, cols, vals, lower, upper, ci = _activation_arrays(graph, rounds)
    for i in range(n):
        rows.append(ci)
        cols.append(var(i, 0))
        vals.append(1.0)
    lower.append(0.0)
    upper.append(float(budget))
    ci += 1
    matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(ci, nvars))
    c = np.zeros(nvars)
    for i in range(n):
        c[var(i, rounds)] = -1.0
    result = milp(
        c,
        constraints=LinearConstraint(matrix, np.array(lower), np.array(upper)),
        integrality=np.ones(nvars),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit, "mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"MILP did not solve to optimality: {result.message}")
    return round(-result.fun)
