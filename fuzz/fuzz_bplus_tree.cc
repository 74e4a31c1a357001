// Fuzz harness for B+-tree page images: the input bytes become the page
// file (page 0 holds the tree's meta record at offset 0), and the tree
// is attached and exercised on top of them. Hostile node counts, child
// and sibling ids past the end of the file, cycles, wrong node kinds or
// levels, and out-of-order keys must all surface as Status errors --
// never as out-of-bounds page access, an abort, or an unbounded loop.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/serde.h"
#include "storage/bplus_tree.h"
#include "storage/pager.h"

namespace {

std::string TempPath() {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/pqidx_fuzz_bt_" + std::to_string(getpid()) +
         ".pages";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Round the image up to whole pages (zero-padded) so Pager::Open gets
  // past the size check and the B+-tree validation runs.
  std::string image(reinterpret_cast<const char*>(data), size);
  size_t pages = (size + pqidx::kPageSize - 1) / pqidx::kPageSize;
  if (pages == 0) pages = 1;
  if (pages > 64) pages = 64;  // bound harness I/O, not a parser limit
  image.resize(pages * pqidx::kPageSize, '\0');

  const std::string path = TempPath();
  if (!pqidx::WriteFile(path, image).ok()) return 0;
  std::remove((path + ".wal").c_str());

  {
    pqidx::Pager pager(/*pool_pages=*/16);
    if (pager.Open(path, /*create=*/false).ok()) {
      pqidx::BPlusTree tree(&pager);
      if (tree.Attach(0, 0).ok()) {
        // Reads: a point probe, a full scan and a range scan. Each may
        // fail with Status on corrupt pages; none may crash or hang.
        (void)tree.Get(1, 0x1234567890abcdefULL);
        uint64_t seen = 0;
        (void)tree.ForEach([&seen](uint32_t, uint64_t, int64_t) { ++seen; });
        (void)tree.ForEachInTree(2, [&seen](uint64_t, int64_t) { ++seen; });
        // Writes through the validated paths: scattered inserts, a
        // right-edge bulk append long enough to split leaves (and, on a
        // full root, grow the tree), a decrement of a probably absent
        // key, and a range delete.
        for (uint32_t i = 0; i < 8; ++i) {
          if (!tree.AddDelta(i, 0x9e3779b97f4a7c15ULL * (i + 1), 1).ok()) {
            break;
          }
        }
        std::vector<pqidx::BPlusTree::Entry> run;
        for (uint64_t fp = 0; fp < 300; ++fp) {
          run.push_back({0xfffffff0u, fp * 7919, 1});
        }
        (void)tree.AddSorted(run);
        (void)tree.AddDelta(2, 42, -1);
        (void)tree.RemoveTree(3);
        (void)tree.Get(3, 99);
        (void)pager.Commit();
      }
      (void)pager.Close();
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return 0;
}
