// Fuzz harness for the three byte-parsing entry points an untrusted
// file can reach (the PR-7 typed-error corruption paths are the attack
// surface):
//
//   * snapshot::Snapshot::Load  — mmap'd binary snapshot: header /
//     section-table / checksum / truncation validation;
//   * snapshot::LoadDimacsGraph — DIMACS .gr (and .co) text importer;
//   * roadnet::LoadGraphCsv     — V/E CSV importer.
//
// Every input is fed to all three parsers (the selector-byte alternative
// would fragment the corpus for no coverage gain at these sizes). The
// contract under test: arbitrary bytes either parse or return a typed
// util::Status — never a crash, hang, sanitizer report, or unbounded
// allocation.
//
// Resource guard: inputs containing an integer token of more than six
// digits are skipped. The text importers eagerly allocate their declared
// vertex counts ("p sp 2000000000 0" is four tokens asking for gigabytes),
// which is resource exhaustion by declaration, not a memory-safety bug —
// the same reason libFuzzer runs carry -malloc_limit_mb. Six digits still
// lets the fuzzer reach every parse path with up-to-million-entry arrays.
//
// Build modes:
//   * clang CI (PTRIDER_FUZZ=ON): compiled with -fsanitize=fuzzer,address;
//     libFuzzer provides main(), 30-second smoke in the `lint` job.
//   * everywhere else: a standalone runner main() that replays files
//     (the checked-in corpus under tests/fuzz_corpus/) once each — wired
//     into ctest so the harness itself can never rot.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "roadnet/graph_io.h"
#include "snapshot/importer.h"
#include "snapshot/snapshot.h"

namespace {

/// True if the input declares a number too large to parse safely (see
/// file comment). Sign prefixes don't matter: a 7+ digit run is a 7+
/// digit value wherever it appears.
bool DeclaresHugeNumber(const uint8_t* data, size_t size) {
  size_t run = 0;
  for (size_t i = 0; i < size; ++i) {
    if (std::isdigit(data[i]) != 0) {
      if (++run > 6) return true;
    } else {
      run = 0;
    }
  }
  return false;
}

/// Writes the input to a stable scratch path (the parsers are
/// file-based). One path per extension, reused across iterations and
/// removed at exit: the standalone replay returns from main and
/// libFuzzer ends with exit(), and both run static destructors.
const std::string& ScratchFile(const char* ext, const uint8_t* data,
                               size_t size) {
  struct Scratch {
    std::string prefix;
    std::vector<std::string> written;
    ~Scratch() {
      for (const std::string& p : written) std::remove(p.c_str());
    }
  };
  static Scratch scratch{[] {
    const char* tmp = std::getenv("TMPDIR");
    std::string d = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
    d += "/ptrider_fuzz_" + std::to_string(static_cast<long>(getpid()));
    return d;
  }(), {}};
  thread_local std::string path;
  path = scratch.prefix + ext;
  if (std::find(scratch.written.begin(), scratch.written.end(), path) ==
      scratch.written.end()) {
    scratch.written.push_back(path);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  return path;
}

void RunOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return;  // mirror -max_len for replay mode

  {
    // No digit guard here: the snapshot loader is zero-copy (views into
    // the mapping, bounds-checked against the real file size), so a
    // declared-size lie cannot make it allocate.
    const std::string& path = ScratchFile(".snap", data, size);
    auto snap = ptrider::snapshot::Snapshot::Load(path);
    (void)snap.ok();  // either a snapshot or a typed status
  }
  if (DeclaresHugeNumber(data, size)) return;
  {
    const std::string& path = ScratchFile(".gr", data, size);
    auto graph = ptrider::snapshot::LoadDimacsGraph(path, "", nullptr);
    (void)graph.ok();
  }
  {
    const std::string& path = ScratchFile(".csv", data, size);
    auto graph = ptrider::roadnet::LoadGraphCsv(path);
    (void)graph.ok();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RunOneInput(data, size);
  return 0;
}

#ifndef PTRIDER_FUZZER_BUILD
// Standalone replay: run each argument file through the harness once.
// This is what ctest's fuzz_corpus_replay does on non-clang builds.
int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fuzz_snapshot_load <corpus-file>...\n"
                 "(standalone replay build; configure with "
                 "-DPTRIDER_FUZZ=ON under clang for libFuzzer)\n");
    return 2;
  }
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    ++replayed;
  }
  std::printf("fuzz_snapshot_load: replayed %d corpus file(s), no crash\n",
              replayed);
  return 0;
}
#endif  // PTRIDER_FUZZER_BUILD
