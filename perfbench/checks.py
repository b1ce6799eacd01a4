"""Output checks: parse each command's table and test every row.

A row *fails* when it is an ``error`` row or disagrees with the oracle;
failed rows are counted, never raised. A command is *malformed* when its
output cannot be parsed, has the wrong number of rows, or its exit status
does not match its error rows; any malformed command makes the run
incorrect.

Forward Monte Carlo rows are tested after the run: rows of one slot share
their hyperparameters and differ only in ``--seed``, so their per-command
means pool into an ensemble whose mean must lie within 5 standard errors
of the theory column at every layer (acceptance criterion 6).
"""
from __future__ import annotations

import csv
import io
import json
import math
import statistics
from collections import defaultdict

import oracle
from workloads import option


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows as dicts of floats (``inf``/``nan`` kept) and strings."""
    if fmt == "json":
        rows = []
        for raw in json.loads(text):
            row = {}
            for key, value in raw.items():
                if key.endswith("_flag"):
                    continue
                if value is None and f"{key}_flag" in raw:
                    value = float(raw[f"{key}_flag"])
                row[key] = value
            rows.append(row)
        return rows
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for cells in reader:
        row = {}
        for key, cell in zip(header, cells):
            if cell == "":
                continue
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return rows


def _same_depth(value: float, reference: float) -> bool:
    """Depth scales agree when their rates 1/xi = -log(factor) agree.

    xi is ill-conditioned near the critical line (d xi = xi^2 d(1/xi)),
    so it is compared through the rate, within the tolerance every other
    analytic quantity gets.
    """
    if math.isnan(reference) or math.isinf(reference):
        return (math.isnan(value) and math.isnan(reference)) or value == reference
    if not math.isfinite(value) or value == 0.0 or reference == 0.0:
        return False
    return oracle.close(1.0 / value, 1.0 / reference)


class Checker:
    """Accumulates attempted/failed row counts over a run.

    ``failed`` counts error rows (also counted in ``error_rows``) and rows
    that disagree with the oracle.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.error_rows = 0
        self.malformed: list[str] = []
        self._pools = defaultdict(list)  # (slot, layer) -> [(q, q_th, c, c_th, ok)]
        self._cache: dict = {}

    # -- oracle values, cached per hyperparameter point ---------------------

    def _fixed(self, name, sw, sb, rho):
        key = ("fp", name, sw, sb, rho)
        if key not in self._cache:
            m = oracle.Moments(name)
            q = oracle.q_star(m, sw, sb, rho)
            c = oracle.c_star(m, sw, sb, rho, q) if q > 0 else 1.0
            self._cache[key] = (m, q, c)
        return self._cache[key]

    def _critical_excess(self, name, sw, sb):
        key = ("crit", name, sw, sb)
        if key not in self._cache:
            m = oracle.Moments(name)
            self._cache[key] = oracle.chi1(m, sw, 1.0, oracle.q_star(m, sw, sb, 1.0)) - 1.0
        return self._cache[key]

    # -- per-row checks -----------------------------------------------------

    def _phase_row(self, name, row, critical: bool) -> bool:
        sw, sb, rho = row["sigma_w_sq"], row["sigma_b_sq"], row["rho"]
        q, c, chi = row["q_star"], row["c_star"], row["chi1"]
        m = oracle.Moments(name)
        eff = sw / rho
        if name == "linear":
            return (oracle.close(q, sb / (1 - eff)) and oracle.close(chi, eff)
                    and oracle.close(c, (1 - eff) / (1 - sw)))
        if q == 0.0:
            ok = sb == 0.0 and eff * m.slope(0.0) <= 1.0 and c == 1.0
        else:
            ok = oracle.close(eff * m.second(q) + sb, q)
        chi_ref = eff * m.slope(q)
        ok = ok and oracle.close(chi, chi_ref)
        if critical:
            return ok and abs(chi_ref - 1.0) <= oracle.CRITICAL_TOL
        if q > 0.0 and c == 1.0:
            ok = ok and rho == 1.0 and chi_ref <= 1.0 + oracle.TOL
        elif q > 0.0:
            cross = m.cross(q, q, c)
            if cross is not None:
                ok = ok and oracle.close((sw * cross + sb) / q, c)
        if rho == 1.0 and abs(chi_ref - 1.0) > oracle.CRITICAL_TOL:
            ok = ok and row["phase"] == ("ordered" if chi_ref < 1.0 else "chaotic")
        return ok

    def _xi_c_ref(self, name, sw, sb, rho):
        m, q, c = self._fixed(name, sw, sb, rho)
        if c is None:
            return None
        slope = m.cross_slope(q, c)
        return None if slope is None else oracle.xi(sw * slope)

    def _depth_row(self, name, row) -> bool:
        sw, sb, rho = row["sigma_w_sq"], row["sigma_b_sq"], row["rho"]
        xi_c = self._xi_c_ref(name, sw, sb, rho)
        if "max_trainable_depth" in row:
            ok = row["max_trainable_depth"] == 6.0 * row["xi_c"] or (
                math.isnan(row["xi_c"]) and math.isnan(row["max_trainable_depth"]))
            return ok and (xi_c is None or _same_depth(row["xi_c"], xi_c))
        m, q, _ = self._fixed(name, sw, sb, rho)
        chi = oracle.chi1(m, sw, rho, q)
        xi_grad = math.inf if abs(chi - 1) <= 1e-12 else -1.0 / math.log(chi)
        xi_q = oracle.xi(chi + sw / rho * m.curvature(q))
        ok = _same_depth(row["xi_grad"], xi_grad) and _same_depth(row["xi_q_theory"], xi_q)
        return ok and (xi_c is None or _same_depth(row["xi_c_theory"], xi_c))

    def _simulate_row(self, cmd, name, row) -> bool:
        sw, sb, rho = row["sigma_w_sq"], row["sigma_b_sq"], row["rho"]
        mode = cmd.argv[1]
        if mode == "forward":
            q0 = float(option(cmd.argv, "--q0", "0.8"))
            c0 = float(option(cmd.argv, "--c0", "0.6"))
            depth = int(option(cmd.argv, "--depth", "60"))
            key = ("traj", name, sw, sb, rho, q0, c0, depth)
            if key not in self._cache:
                self._cache[key] = oracle.trajectory(
                    oracle.Moments(name), sw, sb, rho, q0, c0, depth)
            q_ref, c_ref = self._cache[key]
            layer = int(row["layer"])
            ok = (oracle.close(row["q_aa_theory"], q_ref[layer])
                  and oracle.close(row["c_ab_theory"], c_ref[layer]))
            # rows that already failed are not counted again by finish()
            self._pools[(cmd.slot, layer)].append(
                (row["q_aa_hat"], row["q_aa_theory"], row["c_ab_hat"],
                 row["c_ab_theory"], ok))
            return ok
        m, q, c = self._fixed(name, sw, sb, rho)
        if mode == "gradients":
            return (math.isfinite(row["log_grad_norm_sq"])
                    and oracle.close(row["theory_slope"], -math.log(oracle.chi1(m, sw, rho, q))))
        slope = m.cross_slope(q, c) if c is not None else None
        return math.isfinite(row["grad_dot"]) and (
            slope is None or oracle.close(row["theory_factor"], sw * slope))

    def _row_ok(self, cmd, name, index, row) -> bool:
        kind = cmd.argv[0]
        if kind == "phase-diagram":
            return self._phase_row(name, row, critical=index >= cmd.points)
        if kind == "critical-line":
            sb, sw = row["sigma_b_sq"], row["sigma_w_sq_critical"]
            if sb == 0.0:
                return sw == 1.0
            return abs(self._critical_excess(name, sw, sb)) <= oracle.CRITICAL_TOL
        if kind in ("trainable-depth", "depth-scales"):
            return self._depth_row(name, row)
        return self._simulate_row(cmd, name, row)

    # -- public -------------------------------------------------------------

    def add(self, cmd, text: str, status: int | None) -> None:
        """Check one command's output; count its rows.

        ``status`` is None when the command raised instead of returning.
        """
        fmt = option(cmd.argv, "--format", "csv")
        name = option(cmd.argv, "--activation", "tanh")
        try:
            if status is None:
                raise ValueError("the command raised")
            rows = parse_table(text, fmt)
        except (ValueError, StopIteration) as exc:
            self.malformed.append(f"{' '.join(cmd.argv)}: no table ({exc})")
            self.attempted += cmd.rows
            self.failed += cmd.rows
            return
        errors = sum(1 for row in rows if row.get("error"))
        if len(rows) != cmd.rows or status != (2 if errors else 0):
            self.malformed.append(f"{' '.join(cmd.argv)}: {len(rows)} rows "
                                  f"(expected {cmd.rows}), exit status {status}")
        self.attempted += len(rows)
        for index, row in enumerate(rows):
            if row.get("error"):
                self.failed += 1
                self.error_rows += 1
            else:
                try:
                    ok = self._row_ok(cmd, name, index, row)
                except (KeyError, TypeError, ValueError, ZeroDivisionError):
                    ok = False
                self.failed += not ok

    def finish(self) -> None:
        """Pooled 5-SE test of the forward Monte Carlo rows."""
        for (_, layer), pool in self._pools.items():
            if len(pool) < 2:
                continue
            q, q_th, c, c_th, ok = zip(*pool)
            bad = False
            for values, theory in ((q, q_th[0]), (c, c_th[0])):
                se = statistics.stdev(values) / math.sqrt(len(values))
                bad = bad or not abs(statistics.fmean(values) - theory) <= oracle.MAX_SE * se
            self.failed += sum(ok) if bad else 0
        self._pools.clear()
