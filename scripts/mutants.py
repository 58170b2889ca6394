#!/usr/bin/env python3
"""Check that the differential tests kill a table of named mutants.

    python3 scripts/mutants.py                          # on HEAD
    python3 scripts/mutants.py --rev $(git write-tree)  # on the index

Each row of ``MUTANTS`` names a file, an exact piece of its source, the
text that replaces it, and the test node ids that must each fail once it
is replaced.  ``git archive`` of ``--rev`` (a commit, or any tree, for
example the ``git write-tree`` of the index) is unpacked into a
temporary directory with no ``.git``.  There every row's source text
must occur exactly once in its file, or the row is stale; then the
tests the rows name must pass on the unmutated copy.  Then, one row at
a time, the text is replaced and each of its tests runs in its own
``python -m pytest`` process with ``PYTHONPATH=src`` and a fixed
hypothesis seed; the file is restored before the next row.

A row survives when one of its tests passes on the mutant, and is
broken when pytest exits with neither a pass (0) nor a failure (1): a
collection error, no tests collected, a usage error or a crash kills
nothing.  The script exits 1 naming every stale row, every test that
fails unmutated, every survivor and every broken run, and 0 when every
row is killed by each of its tests.
Add a row with each new fast path: a mutant that no test kills is a gap
in the tests, not in the table.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    source: str
    replacement: str
    tests: tuple


DIFFUSION = "src/muxlci/diffusion.py"
COUPLING = "src/muxlci/coupling.py"
KERNEL = "tests/test_diffusion.py::TestKernelMatchesReference::"
MONTE_CARLO = "tests/test_diffusion.py::TestMonteCarloMatchesReference::"
DELTA = "tests/test_diffusion.py::TestDeltaMatchesFullRun::"
BAND = "tests/test_diffusion.py::TestRoundingBand::"
CLIQUE = "tests/test_coupling.py::TestCliqueCoupling::"
SHARED = "tests/test_experiment.py::TestSharedSolve::"
SOLVE = "tests/test_experiment.py::TestSolvePipeline::"
METRICS = "tests/test_experiment.py::TestMetrics::"
NETWORK = "src/muxlci/network.py"
ALIASES = "tests/test_network.py::TestAliases::"

MUTANTS = (
    Mutant(
        "sweep-first-layer-only", DIFFUSION,
        "        for out, bar, received in layers:\n",
        "        for out, bar, received in layers[:1]:\n",
        (KERNEL + "test_multiplex_lt_propagate_exact",)),
    Mutant(
        "restricted-run-over-all-layers", "src/muxlci/experiment.py",
        "multiplex_lt_propagate(network.alone(target_layer_index), local_seeds, hops)",
        "multiplex_lt_propagate(network, local_seeds, hops)",
        (METRICS + "test_external_influence_detects_cross_layer_entry",
         METRICS + "test_external_influence_reuses_given_outcome")),
    Mutant(
        "sweep-bar-before-weight", DIFFUSION,
        "                        total = received[v] + w\n"
        "                        received[v] = total\n",
        "                        total = received[v]\n"
        "                        received[v] = total + w\n",
        (KERNEL + "test_lt_propagate_exact", KERNEL + "test_st_propagate_exact",
         KERNEL + "test_multiplex_lt_propagate_exact")),
    Mutant(
        "sweep-crossed-node-left-inactive", DIFFUSION,
        "                            active[v] = 1\n"
        "                            newly.append(v)\n",
        "                            newly.append(v)\n",
        (KERNEL + "test_lt_propagate_exact", KERNEL + "test_multiplex_lt_propagate_exact")),
    Mutant(
        # the near-tie re-sum adds in source order
        "delta-recheck-unsorted", DIFFUSION,
        "    received.sort(key=_first)\n",
        "",
        (DELTA + "test_recheck_sums_by_hop_when_sources_activate_out_of_index_order",
         DELTA + "test_recheck_at_a_bar_equal_to_the_hop_ordered_sum")),
    Mutant(
        # (hop, weight) tuples sorted whole order equal hops by weight
        "delta-resum-ties-by-weight", DIFFUSION,
        "    received.sort(key=_first)\n",
        "    received.sort()\n",
        (DELTA + "test_resummed_float_falling_short_of_the_base",)),
    Mutant(
        # the source-order sum decides alone, also within rounding of the bar
        "delta-near-tie-resum-dropped", DIFFUSION,
        "                if abs(total - need) <= total * SUM_SLACK * len(incoming[v]):\n",
        "                if False:\n",
        (DELTA + "test_recheck_sums_by_hop_when_sources_activate_out_of_index_order",
         DELTA + "test_recheck_at_a_bar_equal_to_the_hop_ordered_sum",
         BAND + "test_recheck_through_the_band_matches_the_hop_ordered_sum")),
    Mutant(
        "delta-activates-unreached-node", DIFFUSION,
        " or need <= 0.0 and all(hop[u] >= t for u, _ in incoming[v]):\n",
        ":\n",
        (DELTA + "test_node_with_a_negative_bar_lost_with_its_only_active_in_neighbour",)),
    Mutant(
        "ic-draw-only-branch-dropped", DIFFUSION,
        "                elif s == mark:\n"
        "                    rand()\n",
        "",
        (MONTE_CARLO + "test_ic_node_hit_twice_in_one_hop_consumes_both_draws",
         MONTE_CARLO + "test_ic_edges_into_one_node_in_one_hop",
         MONTE_CARLO + "test_ic_single_leaves_the_stream_where_the_reference_does")),
    Mutant(
        "st-threshold-range-check-dropped", DIFFUSION,
        "        for u, b in zip(graph.node_ids, bounds):\n"
        "            if not 0.0 < b <= 1.0:\n"
        "                raise ValueError(f\"stochastic threshold bound for {u!r} outside (0, 1]: {b}\")\n",
        "",
        ("tests/test_diffusion.py::TestStochasticThreshold::test_threshold_outside_unit_interval_raises",)),
    Mutant(
        "st-bars-zero-bound-accepted", DIFFUSION,
        "            if not 0.0 < b <= 1.0:\n",
        "            if not 0.0 <= b <= 1.0:\n",
        ("tests/test_diffusion.py::TestStochasticThreshold::test_zero_threshold_bound_raises",)),
    Mutant(
        "threshold-above-one-rule-dropped", NETWORK,
        "        elif theta > 1.0 + WEIGHT_EPS:\n"
        "            yield (2, user, 1), f\"{tag}: node {user!r} threshold {theta} exceeds 1\"\n",
        "",
        ("tests/test_network.py::TestLayerRuleBook::test_threshold_above_one_rejected_by_every_entry_point",
         "tests/test_network.py::TestLoadNetwork::test_invalid_network_lists_violations")),
    Mutant(
        "file-id-rule-dropped", NETWORK,
        "    if node and node[0] != \"#\" and node.isprintable() and \" \" not in node:\n",
        "    if node.isprintable():\n",
        ("tests/test_network.py::TestLayerRuleBook::test_id_no_file_can_carry_rejected_by_every_entry_point",
         "tests/test_coupling.py::TestCoupledExport::test_manifest_node_id_no_file_can_carry_names_line",
         "tests/test_cli.py::test_alias_file_canonical_id_with_whitespace_exit_code")),
    Mutant(
        "printable-id-rule-dropped", NETWORK,
        " and node.isprintable() and ",
        " and ",
        ("tests/test_network.py::TestLayerRuleBook::test_id_no_file_can_carry_rejected_by_every_entry_point",
         "tests/test_cli.py::test_non_printable_id_in_a_layer_file_exit_code",
         "tests/test_cli.py::test_non_printable_id_in_an_alias_file_exit_code")),
    Mutant(
        "rule-book-first-fault-in-set-order", NETWORK,
        "        fault = min(_layer_faults(layer), default=None)\n",
        "        fault = next(_layer_faults(layer), None)\n",
        ("tests/test_cli.py::test_rule_book_first_fault_independent_of_hash_seed",)),
    Mutant(
        "theta-conflict-rule-dropped", NETWORK,
        "                if old != theta and not (math.isnan(old) and math.isnan(theta)):\n",
        "                if False:\n",
        ("tests/test_cli.py::test_conflicting_repeated_threshold_exit_code",
         "tests/test_cli.py::test_alias_merge_fault_names_the_layer_file_and_line[thresholds]",
         ALIASES + "test_merge_fault_names_the_line_that_completes_it[thresholds]")),
    Mutant(
        "theta-repeated-nan-conflicts", NETWORK,
        " and not (math.isnan(old) and math.isnan(theta)):\n",
        ":\n",
        ("tests/test_cli.py::test_repeated_nan_threshold_reads_as_one_value",)),
    Mutant(
        "alias-rename-skipped-for-targets", NETWORK,
        "aliases.get(src, src), aliases.get(dst, dst)",
        "aliases.get(src, src), dst",
        (ALIASES + "test_alias_self_loop_rejected", ALIASES + "test_renaming_as_read_matches_a_second_pass",
         "tests/test_cli.py::test_alias_merge_fault_names_the_layer_file_and_line[self-loop]")),
    Mutant(
        "replacing-accepts-a-repeated-path", NETWORK,
        "        if resolved[i] in resolved[:i]:\n",
        "        if False:\n",
        ("tests/test_network.py::TestReplacing::test_a_path_named_twice_opens_nothing",
         "tests/test_cli.py::test_output_file_named_twice_exits_3_writing_nothing")),
    Mutant(
        "replacing-keeps-temporary-file", NETWORK,
        "        for tmp in tmps:\n"
        "            with suppress(FileNotFoundError):\n"
        "                os.remove(tmp)\n",
        "",
        ("tests/test_network.py::TestReplacing::test_block_that_raises_keeps_the_previous_file",
         "tests/test_cli.py::test_output_in_a_missing_directory_exits_4_naming_it[couple-manifest]",
         "tests/test_cli.py::test_failed_rewrite_keeps_the_previous_files",
         "tests/test_experiment.py::TestRunExperiment::test_failed_write_keeps_the_old_table_and_sidecar[row]")),
    Mutant(
        # each temporary file is renamed as its own handle closes, also
        # when a later handle fails to open or the block raises
        "replacing-renames-as-each-handle-closes", NETWORK,
        "for tmp in tmps)\n",
        "for tmp in tmps\n"
        "                        if stack.callback(os.replace, tmp, paths[tmps.index(tmp)]))\n",
        ("tests/test_cli.py::test_output_in_a_missing_directory_exits_4_naming_it[couple-summary]",
         "tests/test_cli.py::test_failed_rewrite_keeps_the_previous_files[generate-second-layer]")),
    Mutant(
        "validate-without-rule-book", NETWORK,
        "        found = list(_layer_faults(layer))\n",
        "        found = []\n",
        ("tests/test_network.py::TestValidate::test_zero_threshold_flagged",
         "tests/test_network.py::TestValidate::test_missing_threshold_flagged",
         "tests/test_network.py::TestValidate::test_negative_weight_flagged")),
    Mutant(
        "thresholds-stream-restarted-per-layer", NETWORK,
        "(1.0 - thresholds_rng.random(len(missing)))",
        '(1.0 - np.random.default_rng(subseed(rng_seed, "thresholds")).random(len(missing)))',
        ("tests/test_network.py::TestBlockDraws::test_same_values_and_order_as_scalar_draws",)),
    Mutant(
        "block-draw-zero-top-up-dropped", NETWORK,
        "    while len(drawn) < count:\n",
        "    if len(drawn) < count:\n",
        ("tests/test_network.py::TestBlockDraws::test_zero_draw_topped_up_as_the_scalar_loop_redraws",)),
    Mutant(
        "coupled-read-duplicate-pass-dropped", COUPLING,
        "        if len(targets) > 1 and len(set(map(target, targets))) != len(targets):\n",
        "        if False:\n",
        ("tests/test_coupling.py::TestCoupledExport::test_duplicate_of_lower_source_index_reported_first",
         "tests/test_cli.py::test_simulate_duplicate_edge_exit_code")),
    Mutant(
        "couple-without-rule-book", COUPLING,
        "    network._check_layers()\n",
        "",
        (CLIQUE + "test_incomplete_network_rejected", CLIQUE + "test_non_finite_threshold_named",
         CLIQUE + "test_negative_layer_weight_named")),
    Mutant(
        "lossless-duplicate-id-guard-dropped", COUPLING,
        "    if len(index) != len(nodes):\n"
        "        raise ValueError(\"duplicate node ids\")\n",
        "",
        (CLIQUE + "test_repeated_layer_index_rejected_by_every_lossless_scheme",)),
    Mutant(
        "involvement-neighbourhood-as-set", COUPLING,
        "        hood = dict.fromkeys([user, *neighbors.get(user, ())])\n",
        "        hood = {user, *neighbors.get(user, ())}\n",
        ("tests/test_coupling.py::TestLossyMultipliersMatchReference::test_alphas_and_folded_coupling_exact",
         "tests/test_cli.py::test_involvement_files_independent_of_hash_seed")),
    Mutant(
        "lossless-sync-half-weight", COUPLING,
        "targets.append((dst, 1.0))",
        "targets.append((dst, 0.5))",
        # a plain clique solve, which passes on the mutant but for the guarantee check
        (SOLVE + "test_metadata_complete", SOLVE + "test_lossless_replay_equals_coupled_fraction")),
    Mutant(
        "layer-memo-keyed-on-layer-alone", "src/muxlci/experiment.py",
        "    key = (layer_index, tuple(cfg.beta for cfg in cfgs))\n",
        "    key = layer_index\n",
        (SHARED + "test_failed_shared_solve_falls_back_to_cells",
         SHARED + "test_shared_layer_solve_time_in_every_row")),
    Mutant(
        "seed-set-prefix-one-seed-too-many", "src/muxlci/solver.py",
        "                return SeedSet(self.users[:size], self.gains[:size], self.coverages[:size], self.total)\n",
        "                return SeedSet(self.users[:size + 1], self.gains[:size + 1], self.coverages[:size + 1],"
        " self.total)\n",
        ("tests/test_solver.py::TestPrefixAcrossTargets::test_target_beyond_run_rejected",
         "tests/test_solver.py::TestPrefixAcrossTargets::test_smaller_target_is_prefix",
         SHARED + "test_rows_match_cell_by_cell")),
)


def unpack(rev, into):
    """Unpack ``git archive rev`` of this repository into the directory ``into``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(into, filter="data")


def stale_rows(tree, mutants):
    """``(row name, problem)`` for each row whose source text is not in
    its file exactly once."""
    stale = []
    for mutant in mutants:
        path = Path(tree) / mutant.path
        if not path.is_file():
            stale.append((mutant.name, f"{mutant.path} does not exist"))
            continue
        found = path.read_text(encoding="utf-8").count(mutant.source)
        if found != 1:
            stale.append((mutant.name, f"source text found {found} times in {mutant.path}, not once"))
    return stale


def run_test(tree, test):
    """The exit status of ``pytest`` on the one node id ``test`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", test]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def check(tree, mutants, log=print):
    """Every problem found with ``mutants`` in the unpacked ``tree``, as lines."""
    problems = [f"stale row {name}: {problem}" for name, problem in stale_rows(tree, mutants)]
    if problems:
        return problems
    for test in dict.fromkeys(test for mutant in mutants for test in mutant.tests):
        status = run_test(tree, test)
        if status != 0:
            problems.append(f"{test} exits {status} on the unmutated tree")
    if problems:
        return problems
    for mutant in mutants:
        path = Path(tree) / mutant.path
        original = path.read_text(encoding="utf-8")
        path.write_text(original.replace(mutant.source, mutant.replacement), encoding="utf-8")
        try:
            statuses = [(test, run_test(tree, test)) for test in mutant.tests]
        finally:
            path.write_text(original, encoding="utf-8")
        survived = [f"{mutant.name} survives {test} (pytest exit 0)" for test, status in statuses if status == 0]
        broken = [f"{mutant.name} breaks the run of {test} (pytest exit {status}, neither a pass nor a failure)"
                  for test, status in statuses if status not in (0, 1)]
        log(f"{mutant.name}: {'survived' if survived else 'broken' if broken else 'killed'}")
        problems += survived + broken
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", default="HEAD", help="commit or tree to check (default HEAD)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants_") as tree:
        unpack(args.rev, tree)
        problems = check(tree, MUTANTS)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(MUTANTS)} rows, {len(problems)} problems, {time.perf_counter() - started:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
