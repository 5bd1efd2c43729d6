#!/usr/bin/env python3
"""Unit tests for the documentation consistency gate (tools/docs_check.py).

Run directly (``python3 tools/test_docs_check.py``) or through ctest
(registered as ``docs_check_selftest``).  The critical cases — the gate
must demonstrably FAIL on a broken link, on an undocumented source file
and on a map row naming a deleted file — are
``test_fails_on_broken_link``, ``test_fails_on_undocumented_source`` and
``test_fails_on_stale_brace_row``.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import docs_check  # noqa: E402


class DocsCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.root = self.dir.name
        os.makedirs(os.path.join(self.root, "docs"))
        os.makedirs(os.path.join(self.root, "src", "sim"))

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return path

    def run_main(self):
        return docs_check.main(["--repo-root", self.root])

    # -- link check --------------------------------------------------------

    def test_clean_tree_passes(self):
        self.write("src/sim/context.hpp", "")
        self.write("README.md", "[docs](docs/architecture.md)")
        self.write("docs/architecture.md", "| context.hpp |")
        self.assertEqual(self.run_main(), 0)

    def test_fails_on_broken_link(self):
        self.write("README.md", "[missing](docs/nope.md)")
        self.write("docs/architecture.md", "")
        self.assertEqual(self.run_main(), 1)

    def test_broken_link_in_docs_dir_fails(self):
        self.write("docs/architecture.md", "[gone](../missing_file.cpp)")
        self.assertEqual(self.run_main(), 1)

    def test_external_and_anchor_links_are_skipped(self):
        self.write("docs/architecture.md",
                   "[x](https://example.org/p.md) [y](#section) "
                   "[z](mailto:a@b.c)")
        self.assertEqual(self.run_main(), 0)

    def test_link_fragment_is_ignored_when_resolving(self):
        self.write("docs/engine.md", "body")
        self.write("docs/architecture.md", "[e](engine.md#anchor)")
        self.assertEqual(self.run_main(), 0)

    def test_root_absolute_link_resolves_against_repo_root(self):
        self.write("docs/engine.md", "body")
        self.write("docs/architecture.md", "[e](/docs/engine.md)")
        self.assertEqual(self.run_main(), 0)

    def test_root_absolute_link_outside_repo_fails(self):
        # /usr exists on the runner's filesystem but not under the repo.
        self.write("docs/architecture.md", "[bad](/usr)")
        self.assertEqual(self.run_main(), 1)

    def test_directory_link_counts_as_existing(self):
        self.write("README.md", "[sources](src/)")
        self.write("docs/architecture.md", "")
        self.assertEqual(self.run_main(), 0)

    # -- drift guard -------------------------------------------------------

    def test_fails_on_undocumented_source(self):
        self.write("src/sim/context.hpp", "")
        self.write("src/sim/brand_new_thing.cpp", "")
        self.write("docs/architecture.md", "mentions context.hpp only")
        self.assertEqual(self.run_main(), 1)

    def test_full_name_mention_covers_a_file(self):
        self.write("src/sim/context.hpp", "")
        self.write("docs/architecture.md", "`sim/context.hpp` is the API")
        self.assertEqual(self.run_main(), 0)

    def test_brace_shorthand_covers_header_impl_pairs(self):
        self.write("src/sim/mailbox.hpp", "")
        self.write("src/sim/mailbox.cpp", "")
        self.write("docs/architecture.md", "| `mailbox.{hpp,cpp}` | rings |")
        self.assertEqual(self.run_main(), 0)

    def test_missing_architecture_doc_is_a_layout_error(self):
        self.write("src/sim/context.hpp", "")
        self.assertEqual(self.run_main(), 2)

    def test_suffix_of_another_files_name_is_not_a_mention(self):
        # src/traffic/source.hpp must not ride on cbr_source.hpp's (or
        # cbr_source.{hpp,cpp}'s) mention: matches are word-bounded.
        self.write("src/traffic/source.hpp", "")
        self.write("src/traffic/cbr_source.hpp", "")
        self.write("docs/architecture.md",
                   "| `cbr_source.{hpp,cpp}` | CBR source |")
        self.assertEqual(self.run_main(), 1)

    def test_standalone_header_mention_still_counts(self):
        self.write("src/traffic/source.hpp", "")
        self.write("docs/architecture.md", "| `source.hpp` | interface |")
        self.assertEqual(self.run_main(), 0)

    def test_non_source_files_are_not_required(self):
        self.write("src/sim/README.txt", "")
        self.write("docs/architecture.md", "")
        self.assertEqual(self.run_main(), 0)

    # -- stale rows --------------------------------------------------------

    MAP = ("## Directory map\n\n"
           "### `src/sim/` — the machine\n\n"
           "| files | what |\n"
           "|---|---|\n"
           "{rows}\n"
           "## Tests\n\n"
           "| `gone.hpp` | outside the map: not checked |\n")

    def test_rows_naming_existing_files_pass(self):
        self.write("src/sim/mailbox.hpp", "")
        self.write("src/sim/mailbox.cpp", "")
        self.write("src/sim/pending_entry.hpp", "")
        self.write("docs/architecture.md", self.MAP.format(
            rows="| `mailbox.{hpp,cpp}` | rings |\n"
                 "| `pending_entry.hpp` | record |"))
        self.assertEqual(self.run_main(), 0)

    def test_fails_on_stale_brace_row(self):
        # The row's shorthand names a header/impl pair that was deleted;
        # another row still covers the surviving file, so only the stale
        # direction can catch it.
        self.write("src/sim/mailbox.hpp", "")
        self.write("src/sim/mailbox.cpp", "")
        self.write("docs/architecture.md", self.MAP.format(
            rows="| `mailbox.{hpp,cpp}` | rings |\n"
                 "| `old_harness.{hpp,cpp}` | deleted |"))
        self.assertEqual(self.run_main(), 1)
        problems = docs_check.check_stale_rows(self.root)
        self.assertEqual(len(problems), 2)
        self.assertIn("src/sim/old_harness.hpp", problems[0])
        self.assertIn("src/sim/old_harness.cpp", problems[1])

    def test_fails_when_one_half_of_a_pair_is_missing(self):
        self.write("src/sim/link.hpp", "")
        self.write("docs/architecture.md", self.MAP.format(
            rows="| `link.{hpp,cpp}` | links |"))
        self.assertEqual(docs_check.check_stale_rows(self.root),
                         ["docs/architecture.md: directory map names "
                          "src/sim/link.cpp, which does not exist"])

    def test_file_in_another_subsystem_does_not_count(self):
        self.write("src/util/rng.hpp", "")
        self.write("docs/architecture.md", self.MAP.format(
            rows="| `rng.hpp` | misplaced |"))
        self.assertEqual(self.run_main(), 1)

    def test_brace_expansion(self):
        self.assertEqual(docs_check.expand_braces("mux.{hpp,cpp}"),
                         ["mux.hpp", "mux.cpp"])
        self.assertEqual(docs_check.expand_braces("source.hpp"),
                         ["source.hpp"])


if __name__ == "__main__":
    unittest.main()
