#!/usr/bin/env python3
"""Unit tests for tools/scanraw_lint.py.

Each rule gets at least one fixture that must be caught and one that must
pass, plus a suppression-comment case. Fixtures are laid out in a temp
directory shaped like the repo (src/...) and linted via a subprocess with
SCANRAW_LINT_ROOT pointing at the temp root.
"""

import os
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "scanraw_lint.py")


class LintTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="scanraw_lint_")
        self.root = self.tmp.name
        os.makedirs(os.path.join(self.root, "src", "io"))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return path

    def lint(self, *paths):
        env = dict(os.environ, SCANRAW_LINT_ROOT=self.root)
        proc = subprocess.run(
            [sys.executable, LINT] + [os.path.join(self.root, p)
                                      for p in paths],
            capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout

    # ---- raw-mutex ----

    def test_raw_mutex_caught(self):
        self.write("src/io/foo.cc",
                   "#include <mutex>\nstd::mutex mu_;\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[raw-mutex]", out)

    def test_raw_lock_guard_caught(self):
        self.write("src/io/foo.cc",
                   "void F() { std::lock_guard<std::mutex> l(mu_); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[raw-mutex]", out)

    def test_wrapper_types_pass(self):
        self.write("src/io/foo.cc",
                   'Mutex mu_{LockRank::kLeaf, "Foo.mu"};\nCondVar cv_;\n'
                   "void F() { MutexLock lock(mu_); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_raw_mutex_exempt_header(self):
        self.write("src/common/thread_annotations.h",
                   "#ifndef SCANRAW_COMMON_THREAD_ANNOTATIONS_H_\n"
                   "#define SCANRAW_COMMON_THREAD_ANNOTATIONS_H_\n"
                   "#include <mutex>\nclass Mutex { std::mutex mu_; };\n"
                   "#endif  // SCANRAW_COMMON_THREAD_ANNOTATIONS_H_\n")
        code, out = self.lint("src/common/thread_annotations.h")
        self.assertEqual(code, 0, out)

    def test_raw_mutex_suppressed(self):
        self.write("src/io/foo.cc",
                   "std::mutex mu_;  // scanraw-lint: allow(raw-mutex)\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_raw_mutex_in_comment_passes(self):
        self.write("src/io/foo.cc",
                   "// wraps std::mutex under the hood\n"
                   'Mutex mu_{LockRank::kLeaf, "Foo.mu"};\n')
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_raw_mutex_outside_src_passes(self):
        self.write("tests/foo.cc", "std::mutex mu_;\n")
        code, out = self.lint("tests/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- unchecked-value ----

    def test_unchecked_value_caught(self):
        self.write("src/io/foo.cc",
                   "int F() {\n"
                   "  auto r = Load();\n"
                   "  return r.value();\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[unchecked-value]", out)

    def test_checked_value_passes(self):
        self.write("src/io/foo.cc",
                   "int F() {\n"
                   "  auto r = Load();\n"
                   "  if (!r.ok()) return -1;\n"
                   "  return r.value();\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_ok_in_previous_function_does_not_count(self):
        self.write("src/io/foo.cc",
                   "int G() {\n"
                   "  auto a = Load();\n"
                   "  if (!a.ok()) return -1;\n"
                   "  return 0;\n"
                   "}\n"
                   "int F() {\n"
                   "  auto r = Load();\n"
                   "  return r.value();\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1, out)
        self.assertIn("[unchecked-value]", out)

    def test_unchecked_value_suppressed(self):
        self.write("src/io/foo.cc",
                   "int F() {\n"
                   "  // scanraw-lint: allow(unchecked-value)\n"
                   "  return Load().value();\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_pointer_value_accessor_passes(self):
        # Counter::value() via pointer is an accessor, not a Result.
        self.write("src/io/foo.cc",
                   "uint64_t F(Counter* c) { return c->value(); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- sleep-in-src ----

    def test_sleep_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n"
                   "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[sleep-in-src]", out)

    def test_sleep_in_test_file_passes(self):
        self.write("src/io/foo_test.cc",
                   "void F() {\n"
                   "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                   "}\n")
        code, out = self.lint("src/io/foo_test.cc")
        self.assertEqual(code, 0, out)

    def test_sleep_suppressed(self):
        self.write("src/io/foo.cc",
                   "void F() {\n"
                   "  // scanraw-lint: allow(sleep-in-src)\n"
                   "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- include-guard ----

    def good_header(self):
        return ("#ifndef SCANRAW_IO_FOO_H_\n"
                "#define SCANRAW_IO_FOO_H_\n"
                "void F();\n"
                "#endif  // SCANRAW_IO_FOO_H_\n")

    def test_good_guard_passes(self):
        self.write("src/io/foo.h", self.good_header())
        code, out = self.lint("src/io/foo.h")
        self.assertEqual(code, 0, out)

    def test_pragma_once_caught(self):
        self.write("src/io/foo.h", "#pragma once\nvoid F();\n")
        code, out = self.lint("src/io/foo.h")
        self.assertEqual(code, 1)
        self.assertIn("[include-guard]", out)

    def test_missing_guard_caught(self):
        self.write("src/io/foo.h", "void F();\n")
        code, out = self.lint("src/io/foo.h")
        self.assertEqual(code, 1)
        self.assertIn("no include guard", out)

    def test_wrong_guard_token_caught(self):
        self.write("src/io/foo.h",
                   "#ifndef WRONG_H_\n#define WRONG_H_\nvoid F();\n"
                   "#endif  // WRONG_H_\n")
        code, out = self.lint("src/io/foo.h")
        self.assertEqual(code, 1)
        self.assertIn("expected SCANRAW_IO_FOO_H_", out)

    def test_mismatched_define_caught(self):
        self.write("src/io/foo.h",
                   "#ifndef SCANRAW_IO_FOO_H_\n#define OTHER_H_\n"
                   "void F();\n#endif\n")
        code, out = self.lint("src/io/foo.h")
        self.assertEqual(code, 1)
        self.assertIn("[include-guard]", out)

    def test_endif_without_comment_caught(self):
        self.write("src/io/foo.h",
                   "#ifndef SCANRAW_IO_FOO_H_\n#define SCANRAW_IO_FOO_H_\n"
                   "void F();\n#endif\n")
        code, out = self.lint("src/io/foo.h")
        self.assertEqual(code, 1)
        self.assertIn("#endif", out)

    # ---- byte-loop ----

    def byte_loop_snippet(self):
        return ("void F(const char* d, size_t n) {\n"
                "  for (size_t i = 0; i < n; ++i) {\n"
                "    if (d[i] == '\\n') Mark(i);\n"
                "  }\n"
                "}\n")

    def test_byte_loop_caught_in_format(self):
        self.write("src/format/foo.cc", self.byte_loop_snippet())
        code, out = self.lint("src/format/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[byte-loop]", out)

    def test_byte_loop_caught_in_scanraw(self):
        self.write("src/scanraw/foo.cc", self.byte_loop_snippet())
        code, out = self.lint("src/scanraw/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[byte-loop]", out)

    def test_byte_loop_outside_hot_dirs_passes(self):
        self.write("src/io/foo.cc", self.byte_loop_snippet())
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_byte_loop_in_test_file_passes(self):
        self.write("src/format/foo_test.cc", self.byte_loop_snippet())
        code, out = self.lint("src/format/foo_test.cc")
        self.assertEqual(code, 0, out)

    def test_for_without_char_compare_passes(self):
        self.write("src/format/foo.cc",
                   "void F(size_t n) {\n"
                   "  for (size_t i = 0; i < n; ++i) Push(i);\n"
                   "}\n")
        code, out = self.lint("src/format/foo.cc")
        self.assertEqual(code, 0, out)

    def test_char_compare_outside_window_passes(self):
        # The comparison is 5 lines below the for-header — out of range.
        self.write("src/format/foo.cc",
                   "void F(const char* d, size_t n) {\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    A();\n"
                   "    B();\n"
                   "    C();\n"
                   "    D();\n"
                   "    if (d[i] == 'x') Mark(i);\n"
                   "  }\n"
                   "}\n")
        code, out = self.lint("src/format/foo.cc")
        self.assertEqual(code, 0, out)

    def test_byte_loop_suppressed_on_header(self):
        self.write("src/format/foo.cc",
                   "void F(const char* d, size_t n) {\n"
                   "  // scanraw-lint: allow(byte-loop)\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    if (d[i] == '\\n') Mark(i);\n"
                   "  }\n"
                   "}\n")
        code, out = self.lint("src/format/foo.cc")
        self.assertEqual(code, 0, out)

    def test_byte_loop_suppressed_on_compare_line(self):
        self.write("src/format/foo.cc",
                   "void F(const char* d, size_t n) {\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    if (d[i] == '\\n') Mark(i);"
                   "  // scanraw-lint: allow(byte-loop)\n"
                   "  }\n"
                   "}\n")
        code, out = self.lint("src/format/foo.cc")
        self.assertEqual(code, 0, out)

    def test_char_compare_in_comment_passes(self):
        self.write("src/format/foo.cc",
                   "void F(const char* d, size_t n) {\n"
                   "  for (size_t i = 0; i < n; ++i) {\n"
                   "    // stops when d[i] == '\\n' is seen\n"
                   "    Push(d, i);\n"
                   "  }\n"
                   "}\n")
        code, out = self.lint("src/format/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- state-file-write ----

    def test_state_file_write_caught(self):
        self.write("src/db/foo.cc",
                   "Status Save() {\n"
                   "  return WriteStringToFile(path_, Serialize());\n"
                   "}\n")
        code, out = self.lint("src/db/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[state-file-write]", out)
        self.assertIn("AtomicWriteFile", out)

    def test_atomic_write_passes(self):
        self.write("src/db/foo.cc",
                   "Status Save() {\n"
                   "  return AtomicWriteFile(path_, Serialize());\n"
                   "}\n")
        code, out = self.lint("src/db/foo.cc")
        self.assertEqual(code, 0, out)

    def test_state_file_write_exempt_in_file_cc(self):
        self.write("src/io/file.cc",
                   "Status WriteStringToFile(const std::string& p,\n"
                   "                         std::string_view c) {\n"
                   "  return Status::OK();\n"
                   "}\n")
        code, out = self.lint("src/io/file.cc")
        self.assertEqual(code, 0, out)

    def test_state_file_write_in_test_file_passes(self):
        self.write("src/db/foo_test.cc",
                   "void F() { WriteStringToFile(p, c); }\n")
        code, out = self.lint("src/db/foo_test.cc")
        self.assertEqual(code, 0, out)

    def test_state_file_write_suppressed(self):
        self.write("src/db/foo.cc",
                   "Status Dump() {\n"
                   "  // scratch output, no durability needed\n"
                   "  // scanraw-lint: allow(state-file-write)\n"
                   "  return WriteStringToFile(path_, Serialize());\n"
                   "}\n")
        code, out = self.lint("src/db/foo.cc")
        self.assertEqual(code, 0, out)

    def test_state_file_write_in_comment_passes(self):
        self.write("src/db/foo.cc",
                   "// unlike WriteStringToFile(, this fsyncs and renames\n"
                   "Status Save() { return AtomicWriteFile(p, c); }\n")
        code, out = self.lint("src/db/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- flight-record-path ----

    def record_fn(self, body):
        return ("void FlightRecorder::Record(FlightEvent e, uint64_t a) {\n"
                f"  {body}\n"
                "}\n")

    def test_flight_record_mutex_caught(self):
        self.write("src/obs/flight_recorder.cc",
                   self.record_fn("MutexLock lock(mu_);"))
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 1)
        self.assertIn("[flight-record-path]", out)
        self.assertIn("mutex acquisition", out)

    def test_flight_record_io_caught(self):
        self.write("src/obs/flight_recorder.cc",
                   self.record_fn("write(2, buf, n);"))
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 1)
        self.assertIn("IO call", out)

    def test_flight_record_allocation_caught(self):
        self.write("src/obs/flight_recorder.cc",
                   self.record_fn("auto* s = new Slot();"))
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 1)
        self.assertIn("heap allocation", out)

    def test_flight_record_free_function_caught(self):
        self.write("src/obs/flight_recorder.h",
                   "#ifndef SCANRAW_OBS_FLIGHT_RECORDER_H_\n"
                   "#define SCANRAW_OBS_FLIGHT_RECORDER_H_\n"
                   "inline void FlightRecord(FlightEvent e) {\n"
                   "  std::fprintf(stderr, \"x\");\n"
                   "}\n"
                   "#endif  // SCANRAW_OBS_FLIGHT_RECORDER_H_\n")
        code, out = self.lint("src/obs/flight_recorder.h")
        self.assertEqual(code, 1)
        self.assertIn("[flight-record-path]", out)

    def test_flight_record_span_wrapper_caught(self):
        # Any FlightRecord* wrapper is part of the record path, not just
        # FlightRecord itself.
        self.write("src/obs/flight_recorder.h",
                   "#ifndef SCANRAW_OBS_FLIGHT_RECORDER_H_\n"
                   "#define SCANRAW_OBS_FLIGHT_RECORDER_H_\n"
                   "inline void FlightRecordSpan(FlightEvent e, int64_t t) {\n"
                   "  MutexLock lock(mu_);\n"
                   "}\n"
                   "#endif  // SCANRAW_OBS_FLIGHT_RECORDER_H_\n")
        code, out = self.lint("src/obs/flight_recorder.h")
        self.assertEqual(code, 1)
        self.assertIn("[flight-record-path]", out)
        self.assertIn("mutex acquisition", out)

    def test_flight_record_atomic_stores_pass(self):
        self.write("src/obs/flight_recorder.cc",
                   self.record_fn("slot.a.store(a, std::memory_order_relaxed);"))
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 0, out)

    def test_flight_record_forbidden_outside_record_passes(self):
        # Dump paths may do IO; only Record* bodies are constrained.
        self.write("src/obs/flight_recorder.cc",
                   "void FlightRecorder::DumpTo(int fd) const {\n"
                   "  write(fd, buf, n);\n"
                   "}\n")
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 0, out)

    def test_flight_record_other_files_exempt(self):
        self.write("src/obs/telemetry.cc",
                   "void Telemetry::RecordSample() {\n"
                   "  MutexLock lock(mu_);\n"
                   "}\n")
        code, out = self.lint("src/obs/telemetry.cc")
        self.assertEqual(code, 0, out)

    def test_flight_record_declaration_ignored(self):
        self.write("src/obs/flight_recorder.cc",
                   "void Record(FlightEvent e, uint64_t a);\n"
                   "void F() { write(2, buf, n); }\n")
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 0, out)

    def test_flight_record_suppressed(self):
        self.write("src/obs/flight_recorder.cc",
                   "void FlightRecorder::Record(FlightEvent e) {\n"
                   "  // scanraw-lint: allow(flight-record-path)\n"
                   "  write(2, buf, n);\n"
                   "}\n")
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 0, out)

    def test_flight_record_mention_in_comment_passes(self):
        self.write("src/obs/flight_recorder.cc",
                   "void FlightRecorder::Record(FlightEvent e) {\n"
                   "  // never calls write( or malloc( here\n"
                   "  slot.a.store(1);\n"
                   "}\n")
        code, out = self.lint("src/obs/flight_recorder.cc")
        self.assertEqual(code, 0, out)

    # ---- stderr-write ----

    def test_stderr_fprintf_caught(self):
        self.write("src/io/foo.cc",
                   "void F() { fprintf(stderr, \"oops\\n\"); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[stderr-write]", out)

    def test_stderr_std_fprintf_caught(self):
        self.write("src/io/foo.cc",
                   "void F() { std::fprintf(stderr, \"oops\\n\"); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[stderr-write]", out)

    def test_stderr_cerr_caught(self):
        self.write("src/io/foo.cc",
                   "void F() { std::cerr << \"oops\"; }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[stderr-write]", out)

    def test_stderr_perror_caught(self):
        self.write("src/io/foo.cc", "void F() { perror(\"open\"); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[stderr-write]", out)

    def test_stderr_exempt_in_log_cc(self):
        self.write("src/obs/log.cc",
                   "void Emit() { std::fprintf(stderr, \"line\\n\"); }\n")
        code, out = self.lint("src/obs/log.cc")
        self.assertEqual(code, 0, out)

    def test_stderr_in_test_file_passes(self):
        self.write("src/io/foo_test.cc",
                   "void F() { fprintf(stderr, \"debug\\n\"); }\n")
        code, out = self.lint("src/io/foo_test.cc")
        self.assertEqual(code, 0, out)

    def test_stderr_outside_src_passes(self):
        self.write("tools/foo.cc",
                   "void F() { fprintf(stderr, \"usage\\n\"); }\n")
        code, out = self.lint("tools/foo.cc")
        self.assertEqual(code, 0, out)

    def test_stderr_suppressed(self):
        self.write("src/io/foo.cc",
                   "void F() {\n"
                   "  // scanraw-lint: allow(stderr-write)\n"
                   "  fprintf(stderr, \"pre-logging bootstrap path\\n\");\n"
                   "}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_stderr_mention_in_comment_passes(self):
        self.write("src/io/foo.cc",
                   "// diagnostics go through LOG_*, never fprintf(stderr\n"
                   "void F() { LOG_WARN(\"oops\"); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_stdout_fprintf_passes(self):
        self.write("src/io/foo.cc",
                   "void F() { fprintf(stdout, \"report\\n\"); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- driver behavior ----

    def test_directory_walk_and_multiple_findings(self):
        self.write("src/io/a.cc", "std::mutex a;\n")
        self.write("src/io/b.cc", "std::mutex b;\n")
        code, out = self.lint("src")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[raw-mutex]"), 2, out)

    # ---- mutex-rank ----

    def test_unranked_mutex_member_caught(self):
        self.write("src/io/foo.cc", "class Foo {\n  Mutex mu_;\n};\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[mutex-rank]", out)

    def test_unranked_mutable_mutex_member_caught(self):
        self.write("src/io/foo.cc",
                   "class Foo {\n  mutable Mutex mu_;\n};\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[mutex-rank]", out)

    def test_ranked_mutex_member_passes(self):
        self.write("src/io/foo.cc",
                   "class Foo {\n"
                   '  mutable Mutex mu_{LockRank::kLeaf, "Foo.mu"};\n'
                   "};\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_ranked_mutex_continuation_line_passes(self):
        self.write("src/io/foo.cc",
                   "class Foo {\n  mutable Mutex mu_{\n"
                   '      LockRank::kLeaf, "Foo.mu"};\n'
                   "};\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_mutex_pointer_and_mutexlock_pass(self):
        self.write("src/io/foo.cc",
                   "Mutex* borrowed;\nMutex& ref = other;\n"
                   "void F() { MutexLock lock(*borrowed); }\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_mutex_rank_suppressed(self):
        self.write("src/io/foo.cc",
                   "class Foo {\n"
                   "  Mutex mu_;  // scanraw-lint: allow(mutex-rank)\n"
                   "};\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_mutex_rank_not_enforced_in_tests(self):
        self.write("tests/foo_test.cc", "Mutex mu_;\n")
        code, out = self.lint("tests/foo_test.cc")
        self.assertEqual(code, 0, out)

    def test_wrapper_header_exempt_from_mutex_rank(self):
        self.write("src/common/thread_annotations.h",
                   "#ifndef SCANRAW_COMMON_THREAD_ANNOTATIONS_H_\n"
                   "#define SCANRAW_COMMON_THREAD_ANNOTATIONS_H_\n"
                   "class Mutex {};\n"
                   "#endif  // SCANRAW_COMMON_THREAD_ANNOTATIONS_H_\n")
        code, out = self.lint("src/common/thread_annotations.h")
        self.assertEqual(code, 0, out)

    # ---- condvar-wait-loop ----

    def test_wait_under_if_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  MutexLock lock(mu_);\n"
                   "  if (!ready_) {\n    cv_.Wait(lock);\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[condvar-wait-loop]", out)

    def test_bare_wait_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  MutexLock lock(mu_);\n"
                   "  cv_.WaitFor(lock, timeout);\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[condvar-wait-loop]", out)

    def test_wait_in_while_loop_passes(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  MutexLock lock(mu_);\n"
                   "  while (!ready_) {\n    cv_.Wait(lock);\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_wait_same_line_while_passes(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  MutexLock lock(mu_);\n"
                   "  while (!ready_) cv_.Wait(lock);\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_wait_under_if_inside_outer_loop_passes(self):
        # The watchdog pattern: the predicate re-check sits one block out.
        self.write("src/io/foo.cc",
                   "void F() {\n  for (;;) {\n    {\n"
                   "      MutexLock lock(mu_);\n"
                   "      if (!stop_) {\n"
                   "        cv_.WaitFor(lock, interval);\n      }\n"
                   "      if (stop_) return;\n    }\n    Tick();\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_wait_for_writes_name_passes(self):
        # Longer method names (WaitForWrites) are not CondVar waits.
        self.write("src/io/foo.cc",
                   "void F() {\n  op->WaitForWrites();\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_wait_first_in_unconditional_loop_caught(self):
        # The timer-thread bug: a Stop() before the wait sleeps a whole
        # interval because the stop flag is only read after waking.
        self.write("src/io/foo.cc",
                   "void F() {\n  while (true) {\n    {\n"
                   "      MutexLock lock(mu_);\n"
                   "      cv_.WaitFor(lock, interval);\n"
                   "      if (stop_) return;\n    }\n    Tick();\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[condvar-wait-loop]", out)
        self.assertIn("before any predicate check", out)

    def test_wait_first_in_for_ever_loop_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  MutexLock lock(mu_);\n"
                   "  for (;;) {\n    cv_.Wait(lock);\n"
                   "    if (stop_) return;\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[condvar-wait-loop]", out)

    def test_guarded_wait_in_unconditional_loop_passes(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  while (true) {\n    {\n"
                   "      MutexLock lock(mu_);\n"
                   "      if (!stop_) cv_.WaitFor(lock, interval);\n"
                   "      if (stop_) return;\n    }\n    Tick();\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_check_then_wait_in_unconditional_loop_passes(self):
        # The rate-limiter shape: the predicate returns before the wait.
        self.write("src/io/foo.cc",
                   "void F() {\n  MutexLock lock(mu_);\n  while (true) {\n"
                   "    if (available_ >= need) {\n      return;\n    }\n"
                   "    cv_.WaitFor(lock, wait);\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_wait_in_multiline_while_passes(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  while (true) {\n"
                   "    MutexLock lock(mu_);\n"
                   "    while (queue_.empty() && !closed_ &&\n"
                   "           !stop_) {\n"
                   "      cv_.Wait(lock);\n    }\n    Work();\n  }\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_condvar_wait_loop_suppressed(self):
        self.write("src/io/foo.cc",
                   "void F() {\n"
                   "  // scanraw-lint: allow(condvar-wait-loop)\n"
                   "  cv_.Wait(lock);\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    # ---- thread-spawn ----

    def test_thread_spawn_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  std::thread t([] { Work(); });\n"
                   "  t.join();\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[thread-spawn]", out)

    def test_thread_spawn_assignment_and_async_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n  thread_ = std::thread([this] { Loop(); });\n"
                   "  auto f = std::async(Work);\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[thread-spawn]"), 2, out)

    def test_thread_spawn_allowed_with_reason_passes(self):
        self.write("src/io/foo.cc",
                   "void F() {\n"
                   "  // scanraw-lint: allow(thread-spawn) one per process\n"
                   "  thread_ = std::thread([this] { Loop(); });\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_thread_spawn_allow_without_reason_caught(self):
        self.write("src/io/foo.cc",
                   "void F() {\n"
                   "  // scanraw-lint: allow(thread-spawn)\n"
                   "  thread_ = std::thread([this] { Loop(); });\n}\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 1)
        self.assertIn("[thread-spawn]", out)

    def test_thread_type_mentions_pass(self):
        self.write("src/io/foo.cc",
                   "std::thread thread_;\nstd::vector<std::thread> threads_;\n"
                   "const size_t n = std::thread::hardware_concurrency();\n")
        code, out = self.lint("src/io/foo.cc")
        self.assertEqual(code, 0, out)

    def test_real_src_has_exactly_four_thread_spawn_sites(self):
        # Pool workers, the WRITE stage, the stats server's accept loop and
        # the ticker. Periodic work goes on Ticker::Shared(), not a thread.
        src = os.path.join(os.path.dirname(LINT), os.pardir, "src")
        sites = []
        for root, _, names in os.walk(src):
            for name in sorted(names):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    for line in f:
                        if "scanraw-lint: allow(thread-spawn)" in line:
                            sites.append(os.path.relpath(
                                os.path.join(root, name), src))
        self.assertEqual(sorted(sites), [
            "obs/stats_server.cc",
            "pipeline/thread_pool.cc",
            "pipeline/ticker.cc",
            "scanraw/scan_raw.cc",
        ])

    def test_thread_spawn_in_test_file_passes(self):
        self.write("src/io/foo_test.cc",
                   "void F() {\n  std::thread t([] {});\n  t.join();\n}\n")
        code, out = self.lint("src/io/foo_test.cc")
        self.assertEqual(code, 0, out)

    # ---- numeric-at ----

    def test_numeric_at_caught_in_exec(self):
        self.write("src/exec/query.cc",
                   "for (size_t r = 0; r < rows; ++r) {\n"
                   "  sum += chunk.column(c).NumericAt(r);\n}\n")
        code, out = self.lint("src/exec/query.cc")
        self.assertEqual(code, 1)
        self.assertIn("src/exec/query.cc:2: [numeric-at]", out)

    def test_numeric_at_allowed_with_reason_passes(self):
        self.write("src/exec/query.cc",
                   "// scanraw-lint: allow(numeric-at) one value per chunk\n"
                   "const int64_t first = col.NumericAt(0);\n")
        code, out = self.lint("src/exec/query.cc")
        self.assertEqual(code, 0, out)

    def test_numeric_at_allow_without_reason_caught(self):
        self.write("src/exec/query.cc",
                   "const int64_t first = col.NumericAt(0);  "
                   "// scanraw-lint: allow(numeric-at)\n")
        code, out = self.lint("src/exec/query.cc")
        self.assertEqual(code, 1)
        self.assertIn("[numeric-at]", out)

    def test_numeric_at_outside_exec_or_in_test_passes(self):
        self.write("src/columnar/chunk_sort.cc",
                   "return key.NumericAt(a) < key.NumericAt(b);\n")
        self.write("src/exec/query_test.cc", "EXPECT_EQ(v.NumericAt(0), 1);\n")
        code, out = self.lint("src/columnar/chunk_sort.cc",
                              "src/exec/query_test.cc")
        self.assertEqual(code, 0, out)

    def test_numeric_at_real_engine_passes(self):
        repo = os.path.dirname(os.path.dirname(LINT))
        proc = subprocess.run(
            [sys.executable, LINT, os.path.join(repo, "src", "exec")],
            capture_output=True, text=True,
            env=dict(os.environ, SCANRAW_LINT_ROOT=repo))
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_clean_tree_exits_zero(self):
        self.write("src/io/a.cc", 'Mutex a{LockRank::kLeaf, "a"};\n')
        self.write("src/io/foo.h", self.good_header())
        code, out = self.lint("src")
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
