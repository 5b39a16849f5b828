#!/usr/bin/env python3
"""Self-tests for tools/cebis_lint.py: every rule must fire on a
minimal fixture snippet and stay silent on the compliant twin, so the
linter itself can't silently rot. Run directly or via ctest
(cebis_lint_selftest):

  python3 tools/test_cebis_lint.py
"""

from __future__ import annotations

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import cebis_lint  # noqa: E402


def rules_at(rel: str, text: str) -> list[str]:
    """Rule ids cebis-lint reports for a file at repo-relative `rel`."""
    return [f.rule for f in cebis_lint.lint_file(rel, text)]


class WallClockRule(unittest.TestCase):
    SNIPPET = "auto t0 = std::chrono::steady_clock::now();\n"

    def test_fires_in_result_affecting_code(self):
        self.assertIn("wall-clock", rules_at("src/core/engine.cpp",
                                             self.SNIPPET))
        self.assertIn("wall-clock", rules_at("src/market/sim.cpp",
                                             self.SNIPPET))

    def test_system_clock_and_c_apis_fire_too(self):
        for line in ("std::chrono::system_clock::now();\n",
                     "gettimeofday(&tv, nullptr);\n",
                     "clock_gettime(CLOCK_MONOTONIC, &ts);\n",
                     "std::time(nullptr);\n"):
            self.assertIn("wall-clock", rules_at("src/core/x.cpp", line), line)

    def test_exempt_in_result_neutral_dirs(self):
        for rel in ("src/obs/trace.cpp", "src/io/export.cpp",
                    "src/net/socket.cpp"):
            self.assertEqual(rules_at(rel, self.SNIPPET), [])

    def test_comment_mentions_do_not_fire(self):
        text = "// steady_clock is banned here\nint x = 0;\n"
        self.assertEqual(rules_at("src/core/x.cpp", text), [])

    def test_waiver_on_same_line(self):
        text = ("auto t0 = std::chrono::steady_clock::now();  "
                "// cebis-lint: allow(wall-clock) telemetry only\n")
        self.assertEqual(rules_at("src/core/x.cpp", text), [])

    def test_waiver_on_preceding_line(self):
        text = ("// cebis-lint: allow(wall-clock) telemetry only\n"
                + self.SNIPPET)
        self.assertEqual(rules_at("src/core/x.cpp", text), [])

    def test_waiver_without_reason_is_its_own_finding(self):
        text = ("// cebis-lint: allow(wall-clock)\n" + self.SNIPPET)
        rules = rules_at("src/core/x.cpp", text)
        self.assertIn("waiver-missing-reason", rules)
        self.assertIn("wall-clock", rules)  # and does not suppress

    def test_waiver_does_not_reach_two_lines_down(self):
        text = ("// cebis-lint: allow(wall-clock) telemetry only\n"
                "int unrelated = 0;\n" + self.SNIPPET)
        self.assertIn("wall-clock", rules_at("src/core/x.cpp", text))


class AmbientRandomnessRule(unittest.TestCase):
    def test_fires_everywhere_in_src(self):
        for rel in ("src/core/x.cpp", "src/obs/x.cpp", "src/net/x.cpp"):
            self.assertIn("ambient-randomness",
                          rules_at(rel, "std::random_device rd;\n"))
        self.assertIn("ambient-randomness",
                      rules_at("src/core/x.cpp", "int r = std::rand();\n"))
        self.assertIn("ambient-randomness",
                      rules_at("src/core/x.cpp", "srand(42);\n"))

    def test_seeded_rng_is_fine(self):
        text = "stats::Rng rng(seed);\nauto v = rng.uniform();\n"
        self.assertEqual(rules_at("src/core/x.cpp", text), [])

    def test_identifiers_containing_rand_do_not_fire(self):
        text = "double operand = 1.0; int grand_total(); brand();\n"
        self.assertEqual(rules_at("src/core/x.cpp", text), [])


class UnorderedIterationRule(unittest.TestCase):
    DECL = "std::unordered_map<int, double> cache;\n"

    def test_declaration_fires_in_result_affecting_code(self):
        self.assertIn("unordered-iteration",
                      rules_at("src/billing/t.cpp", self.DECL))

    def test_declaration_allowed_in_result_neutral_dirs(self):
        self.assertEqual(rules_at("src/net/client.cpp", self.DECL), [])

    def test_ordered_map_is_fine(self):
        self.assertEqual(
            rules_at("src/core/x.cpp", "std::map<int, double> cache;\n"), [])

    def test_iteration_fires_even_in_exempt_dirs(self):
        text = (self.DECL +
                "for (const auto& kv : cache) { sum += kv.second; }\n")
        rules = rules_at("src/net/client.cpp", text)
        self.assertIn("unordered-iteration", rules)

    def test_begin_counts_as_iteration(self):
        text = self.DECL + "auto it = cache.begin();\n"
        self.assertIn("unordered-iteration",
                      rules_at("src/net/client.cpp", text))

    def test_lookup_only_use_in_exempt_dir_is_fine(self):
        text = self.DECL + "auto it = cache.find(3);\ncache.emplace(1, 2.0);\n"
        self.assertEqual(rules_at("src/net/client.cpp", text), [])

    def test_alias_iteration_is_tracked(self):
        text = ("using Cursor = std::unordered_map<int, long>;\n"
                "for (auto& kv : Cursor) {}\n")  # contrived but covered
        self.assertIn("unordered-iteration",
                      rules_at("src/net/client.cpp", text))


class ObsReadBackRule(unittest.TestCase):
    CALL = "auto snap = registry.snapshot();\n"

    def test_fires_in_instrumented_code(self):
        for rel in ("src/core/sim.cpp", "src/net/server.cpp",
                    "src/storage/ctl.cpp"):
            self.assertIn("obs-read-back", rules_at(rel, self.CALL))

    def test_allowed_in_obs_and_io(self):
        for rel in ("src/obs/metrics.cpp", "src/io/export.cpp"):
            self.assertEqual(rules_at(rel, self.CALL), [])

    def test_pointer_call_fires(self):
        self.assertIn("obs-read-back",
                      rules_at("src/core/x.cpp",
                               "io::write(reg->snapshot());\n"))

    def test_waiver_works(self):
        text = ("// cebis-lint: allow(obs-read-back) exposition endpoint\n"
                + self.CALL)
        self.assertEqual(rules_at("src/net/server.cpp", text), [])


class NodiscardResultRule(unittest.TestCase):
    def test_missing_nodiscard_fires_in_headers(self):
        text = "  RunResult run(const Spec& spec);\n"
        self.assertIn("nodiscard-result", rules_at("src/core/api.h", text))

    def test_annotated_declaration_passes(self):
        text = "  [[nodiscard]] RunResult run(const Spec& spec);\n"
        self.assertEqual(rules_at("src/core/api.h", text), [])

    def test_annotation_on_preceding_line_passes(self):
        text = ("  [[nodiscard]]\n"
                "  RunResult run(const Spec& spec);\n")
        self.assertEqual(rules_at("src/core/api.h", text), [])

    def test_qualified_return_type_fires(self):
        text = "  core::StorageOutcome outcome(int month);\n"
        self.assertIn("nodiscard-result", rules_at("src/storage/api.h", text))

    def test_constructors_do_not_fire(self):
        text = "  RunResult RunResult(const RunResult&);\n"
        self.assertEqual(rules_at("src/core/api.h", text), [])

    def test_member_fields_do_not_fire(self):
        text = "  RunResult result_;\n  HourlyEnergy energy_;\n"
        self.assertEqual(rules_at("src/core/api.h", text), [])

    def test_cpp_files_are_not_scanned(self):
        text = "RunResult run(const Spec& spec) { return do_run(spec); }\n"
        self.assertEqual(rules_at("src/core/api.cpp", text), [])

    def test_non_result_types_do_not_fire(self):
        text = "  double savings() const;\n  int count();\n"
        self.assertEqual(rules_at("src/core/api.h", text), [])


class UsingNamespaceRule(unittest.TestCase):
    def test_fires_in_src_cpp_and_all_headers(self):
        self.assertIn("using-namespace",
                      rules_at("src/core/x.cpp", "using namespace std;\n"))
        self.assertIn("using-namespace",
                      rules_at("src/core/x.h", "using namespace cebis;\n"))
        self.assertIn("using-namespace",
                      rules_at("bench/bench_common.h",
                               "using namespace cebis;\n"))

    def test_bench_translation_units_may(self):
        self.assertEqual(
            rules_at("bench/bench_fig01.cpp", "using namespace cebis;\n"), [])

    def test_using_declarations_are_fine(self):
        text = "using std::vector;\nusing Clock = int;\n"
        self.assertEqual(rules_at("src/core/x.cpp", text), [])


class ThreadDetachRule(unittest.TestCase):
    def test_fires_in_src(self):
        self.assertIn("thread-detach",
                      rules_at("src/net/server.cpp", "worker.detach();\n"))

    def test_join_is_fine(self):
        self.assertEqual(
            rules_at("src/net/server.cpp", "worker.join();\n"), [])


class FrameFormatOwnerRule(unittest.TestCase):
    CRC = "if (service::crc32(bytes, crc_at) != stored_crc) {\n"
    HEADER = "using service::codec::kFrameHeaderSize;\n"

    def test_fires_outside_the_owners(self):
        for text in (self.CRC, self.HEADER):
            self.assertIn("frame-format-owner",
                          rules_at("src/net/wire.cpp", text), text)
        self.assertIn("frame-format-owner",
                      rules_at("src/service/event_log.h",
                               "std::uint32_t crc32(const std::uint8_t* d, "
                               "std::size_t n);\n"))

    def test_owners_may(self):
        for rel in ("src/service/codec.h", "src/service/event_log.cpp"):
            self.assertEqual(rules_at(rel, self.CRC + self.HEADER), [], rel)

    def test_outside_src_is_fine(self):
        self.assertEqual(rules_at("tests/test_event_log.cpp", self.CRC), [])

    def test_comments_and_longer_names_do_not_fire(self):
        text = ("// crc32(type | length | payload)\n"
                "constexpr Crc32Tables t = make_crc32_tables();\n")
        self.assertEqual(rules_at("src/net/wire.cpp", text), [])

    def test_listed(self):
        self.assertIn("frame-format-owner", cebis_lint.RULES)


class UnreferencedApiRule(unittest.TestCase):
    HEADER = ("namespace cebis::stats {\n"
              "[[nodiscard]] double median(std::span<const double> xs);\n"
              "}  // namespace cebis::stats\n")
    DEFINITION = ("namespace cebis::stats {\n"
                  "double median(std::span<const double> xs) {\n"
                  "  return percentile(xs, 50.0);\n"
                  "}\n"
                  "}  // namespace cebis::stats\n")
    CALL = "void run() { const double m = stats::median(xs); }\n"

    @staticmethod
    def flagged(sources: dict[str, str]) -> list[tuple[str, int]]:
        return [(f.path, f.line)
                for f in cebis_lint.unreferenced_api(sources)]

    def test_unreferenced_function_is_flagged(self):
        self.assertEqual(self.flagged({"src/stats/percentile.h": self.HEADER}),
                         [("src/stats/percentile.h", 2)])

    def test_own_declaration_and_definition_do_not_count(self):
        tree = {"src/stats/percentile.h": self.HEADER,
                "src/stats/percentile.cpp": self.DEFINITION}
        self.assertEqual(len(self.flagged(tree)), 1)

    def test_member_definition_does_not_count(self):
        tree = {"src/io/csv.h": ("class CsvWriter {\n public:\n"
                                 "  void numeric_row(double v);\n};\n"),
                "src/io/csv.cpp": ("void CsvWriter::numeric_row(double v) {\n"
                                   "  row(v);\n}\n")}
        self.assertEqual(self.flagged(tree), [("src/io/csv.h", 3)])

    def test_product_reference_clears_it(self):
        for rel in ("bench/bench_fig07.cpp", "perfbench/src/sweep.cpp",
                    "examples/quickstart.cpp", "src/market/calibration.cpp"):
            tree = {"src/stats/percentile.h": self.HEADER, rel: self.CALL}
            self.assertEqual(self.flagged(tree), [], rel)

    def test_test_reference_does_not_count(self):
        tree = {"src/stats/percentile.h": self.HEADER,
                "tests/test_percentile.cpp": self.CALL}
        self.assertEqual(len(self.flagged(tree)), 1)

    def test_perfbench_headers_are_not_linted(self):
        tree = {"perfbench/src/bench.h": self.HEADER}
        self.assertEqual(self.flagged(tree), [])

    def test_constructors_destructors_operators_and_private_are_exempt(self):
        text = ("class Matrix {\n public:\n  Matrix(int n);\n  ~Matrix();\n"
                "  bool operator==(const Matrix& o) const = default;\n"
                "  double operator()(int r, int c) const;\n"
                " private:\n  void grow(int n);\n};\n"
                "struct Row {\n  Row() = default;\n};\n")
        self.assertEqual(self.flagged({"src/stats/matrix.h": text}), [])

    def test_parameters_and_initializers_are_references(self):
        text = ("int limit();\n"
                "struct Config {\n  int cap = limit();\n};\n")
        self.assertEqual(self.flagged({"src/core/config.h": text}), [])

    def test_waiver_with_reason_suppresses(self):
        text = ("// cebis-lint: allow(unreferenced-api) test oracle\n"
                "[[nodiscard]] double median(std::span<const double> xs);\n")
        self.assertEqual(self.flagged({"src/stats/percentile.h": text}), [])

    def test_waiver_without_reason_is_a_finding(self):
        text = ("// cebis-lint: allow(unreferenced-api)\n"
                "[[nodiscard]] double median(std::span<const double> xs);\n")
        self.assertEqual(len(self.flagged({"src/stats/percentile.h": text})), 1)
        self.assertIn("waiver-missing-reason",
                      rules_at("src/stats/percentile.h", text))

    def test_listed(self):
        self.assertIn("unreferenced-api", cebis_lint.RULES)


class HarnessBehavior(unittest.TestCase):
    def test_string_literals_do_not_fire(self):
        text = 'throw Error("steady_clock reads are banned");\n'
        self.assertEqual(rules_at("src/core/x.cpp", text), [])

    def test_block_comments_do_not_fire(self):
        text = "/* std::random_device would break\n   determinism */\n"
        self.assertEqual(rules_at("src/core/x.cpp", text), [])

    def test_findings_are_sorted_and_formatted(self):
        text = "srand(1);\nstd::random_device rd;\n"
        findings = cebis_lint.lint_file("src/core/x.cpp", text)
        self.assertEqual([f.line for f in findings], [1, 2])
        self.assertTrue(str(findings[0]).startswith(
            "src/core/x.cpp:1: [ambient-randomness]"))

    def test_list_rules_exits_zero(self):
        self.assertEqual(cebis_lint.main(["--list-rules"]), 0)

    def test_main_is_clean_on_the_real_tree(self):
        # The acceptance gate, callable from anywhere: the shipped src/
        # tree must lint clean.
        self.assertEqual(cebis_lint.main([]), 0)


if __name__ == "__main__":
    unittest.main()
