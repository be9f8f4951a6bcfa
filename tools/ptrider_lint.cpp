// ptrider_lint — token-level determinism & concurrency-discipline linter.
//
// PTRider's central claim is that every parallel path produces reports
// BIT-identical to the sequential baseline (DESIGN.md sections 5/6/10/11).
// TSan and the report-equality tests enforce that dynamically; this tool
// enforces the four source-level invariants that make the dynamic checks
// trustworthy, plus the annotated-mutex rule that keeps the Clang
// thread-safety analysis airtight:
//
//   raw-rand        rand()/srand()/std::random_device outside util/random.h.
//                   All randomness must flow through util::Rng so every run
//                   is reproducible from a seed.
//   wall-clock      std::chrono::{system,steady,high_resolution}_clock
//                   outside the sanctioned wall-time sources
//                   (service/clock.h, util/timer.h) and bench/. A clock
//                   read on a sim path makes reports machine-dependent.
//   raw-thread      std::thread construction outside dispatch/thread_pool
//                   and service/workload_driver. Every thread must be owned
//                   by a type with audited join discipline.
//                   (std::thread::hardware_concurrency() is allowed — it
//                   names the type, it does not start a thread.)
//   unordered-iter  range-for over a std::unordered_map/unordered_set
//                   declared in the same file, inside the report-feeding
//                   directories (src/core, src/dispatch, src/pricing,
//                   src/service, src/sim, src/vehicle). Hash-table
//                   iteration order is address-dependent: anything summed
//                   or emitted in that order breaks bit-identity.
//   raw-mutex       std::mutex / std::condition_variable / std::lock_guard
//                   / std::unique_lock / std::scoped_lock / std::shared_*
//                   outside util/mutex.h. A bare mutex is invisible to the
//                   thread-safety analysis (util/thread_annotations.h), so
//                   nothing checks its discipline.
//   direct-push     `TryPush` call sites outside service/workload_driver
//                   (the retrying producer), service/dispatch_service.cpp
//                   (fault-arrival ingress) and the queue's own header.
//                   A push that bypasses the WorkloadDriver skips the
//                   offered/retried/gave-up accounting the admission
//                   funnel invariants are audited against (DESIGN.md
//                   section 14), silently unbalancing every funnel check.
//
// Escape hatch: a `// lint: allow(<rule>)` comment on the offending line
// suppresses that rule for that line (policy in DESIGN.md section 13:
// every escape must be justified by a comment next to it).
//
// Usage:
//   ptrider_lint <dir-or-file>...            lint; findings to stdout,
//                                            exit 1 if any
//   ptrider_lint --self-test <fixture-dir>   every fixture file carries
//                                            `// expect: <rule>` markers on
//                                            the lines it expects findings
//                                            on; exits 1 on any mismatch
//
// Matching is token-level on comment- and string-stripped lines: a rule
// name appearing in a doc comment or a diagnostic string never fires.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string path;  // repo-relative
  size_t line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (path != o.path) return path < o.path;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

/// Repo-relative path: the suffix starting at the last path component
/// named src/tools/bench/examples/tests. Lets fixtures emulate any repo
/// path by mirroring the layout under the fixture root.
std::string RepoRelative(const fs::path& path) {
  const fs::path norm = path.lexically_normal();
  std::vector<std::string> parts;
  for (const fs::path& c : norm) parts.push_back(c.string());
  static const char* kRoots[] = {"src", "tools", "bench", "examples",
                                 "tests"};
  for (size_t i = parts.size(); i-- > 0;) {
    for (const char* root : kRoots) {
      if (parts[i] == root) {
        std::string rel = parts[i];
        for (size_t j = i + 1; j < parts.size(); ++j) {
          rel += "/";
          rel += parts[j];
        }
        return rel;
      }
    }
  }
  return norm.generic_string();
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// One physical line after comment/string stripping, plus the escape and
/// expectation annotations parsed from the comments before they died.
struct CleanLine {
  std::string code;                 // comments and string bodies removed
  std::set<std::string> allowed;    // lint: allow(<rule>) on this line
  std::vector<std::string> expect;  // expect: <rule> (fixtures only)
};

/// Strips // and /**/ comments and the bodies of string/char literals
/// (keeping the quotes, so adjacency stays visible), recording
/// `lint: allow(rule)` and `expect: rule` annotations per line. Tracks
/// block-comment state across lines. Raw strings are handled only in
/// their R"( ... )" single-line form — good enough for this codebase,
/// where the linter's own patterns are the main raw-string users.
std::vector<CleanLine> StripAndAnnotate(const std::vector<std::string>& raw) {
  std::vector<CleanLine> out(raw.size());
  bool in_block_comment = false;
  for (size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    CleanLine& cl = out[li];
    std::string comment_text;  // accumulated comment chars on this line
    std::string& code = cl.code;
    size_t i = 0;
    while (i < line.size()) {
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          comment_text += line[i++];
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) {
        comment_text.append(line, i + 2, std::string::npos);
        break;
      }
      if (line.compare(i, 2, "/*") == 0) {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (line[i] == '"' || line[i] == '\'') {
        const char quote = line[i];
        code += quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            i += 2;
            continue;
          }
          if (line[i] == quote) break;
          ++i;
        }
        if (i < line.size()) {
          code += quote;
          ++i;
        }
        continue;
      }
      code += line[i++];
    }
    // Annotations live in comments: `lint: allow(rule[, rule...])`,
    // `expect: rule[, rule...]`.
    for (const char* tag : {"lint: allow(", "lint:allow("}) {
      size_t pos = 0;
      while ((pos = comment_text.find(tag, pos)) != std::string::npos) {
        pos += std::strlen(tag);
        const size_t close = comment_text.find(')', pos);
        if (close == std::string::npos) break;
        std::string inside = comment_text.substr(pos, close - pos);
        size_t start = 0;
        while (start <= inside.size()) {
          size_t comma = inside.find(',', start);
          if (comma == std::string::npos) comma = inside.size();
          std::string rule = inside.substr(start, comma - start);
          rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                     rule.end());
          if (!rule.empty()) cl.allowed.insert(rule);
          start = comma + 1;
        }
        pos = close;
      }
    }
    const size_t epos = comment_text.find("expect:");
    if (epos != std::string::npos) {
      std::string rest = comment_text.substr(epos + 7);
      size_t start = 0;
      while (start <= rest.size()) {
        size_t comma = rest.find(',', start);
        if (comma == std::string::npos) comma = rest.size();
        std::string rule = rest.substr(start, comma - start);
        rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                   rule.end());
        if (!rule.empty()) cl.expect.push_back(rule);
        start = comma + 1;
      }
    }
  }
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `token` occurs in `code` with no identifier character on
/// either side (so `srand(` does not match inside `my_srand(`, and
/// `std::thread` does not match `std::thread::`... callers add their own
/// suffix checks where needed).
size_t FindToken(const std::string& code, const std::string& token,
                 size_t from = 0) {
  size_t pos = from;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

bool ContainsToken(const std::string& code, const std::string& token) {
  return FindToken(code, token) != std::string::npos;
}

// --- Per-rule allowlists (repo-relative path prefixes) ----------------------

bool AllowedRawRand(const std::string& rel) {
  return rel == "src/util/random.h";
}

bool AllowedWallClock(const std::string& rel) {
  // The two sanctioned wall-time sources, and bench timing code.
  return rel == "src/service/clock.h" || rel == "src/util/timer.h" ||
         StartsWith(rel, "bench/");
}

bool AllowedRawThread(const std::string& rel) {
  return StartsWith(rel, "src/dispatch/thread_pool.") ||
         StartsWith(rel, "src/service/workload_driver.");
}

bool AllowedRawMutex(const std::string& rel) {
  return rel == "src/util/mutex.h";
}

bool AllowedDirectPush(const std::string& rel) {
  // The retrying producer, the service's fault-arrival ingress, and the
  // queue defining the method. Everything else must go through the
  // WorkloadDriver so the admission funnel stays balanced.
  return StartsWith(rel, "src/service/workload_driver.") ||
         rel == "src/service/dispatch_service.cpp" ||
         rel == "src/service/mpsc_queue.h";
}

/// Report-feeding directories: files here compute what lands in
/// SimulationReport / ServiceReport, where iteration order becomes
/// output bytes.
bool InReportScope(const std::string& rel) {
  static const char* kDirs[] = {"src/core/",    "src/dispatch/",
                                "src/pricing/", "src/service/",
                                "src/sim/",     "src/vehicle/"};
  for (const char* d : kDirs) {
    if (StartsWith(rel, d)) return true;
  }
  return false;
}

// --- unordered-iter helpers -------------------------------------------------

/// Collects names declared as std::unordered_map/unordered_set in this
/// file: after each `unordered_map<...>` / `unordered_set<...>` token,
/// skips the balanced template argument list (and any `::iterator` etc.
/// suffix) and takes the next identifier as a declared name.
std::set<std::string> UnorderedDeclNames(
    const std::vector<CleanLine>& lines) {
  std::set<std::string> names;
  // Flatten: declarations can wrap across lines.
  std::string all;
  for (const CleanLine& cl : lines) {
    all += cl.code;
    all += '\n';
  }
  for (const char* kind : {"unordered_map", "unordered_set"}) {
    size_t pos = 0;
    while ((pos = FindToken(all, kind, pos)) != std::string::npos) {
      size_t i = pos + std::strlen(kind);
      pos = i;
      if (i >= all.size() || all[i] != '<') continue;
      int depth = 0;
      while (i < all.size()) {
        if (all[i] == '<') ++depth;
        if (all[i] == '>') {
          --depth;
          if (depth == 0) {
            ++i;
            break;
          }
        }
        ++i;
      }
      // Skip member suffixes (::const_iterator), references, pointers.
      while (i < all.size() &&
             (std::isspace(static_cast<unsigned char>(all[i])) != 0 ||
              all[i] == ':' || all[i] == '&' || all[i] == '*')) {
        if (all[i] == ':') {
          // ::suffix — consume the trailing identifier too.
          while (i < all.size() && (all[i] == ':' || IsIdentChar(all[i])))
            ++i;
        } else {
          ++i;
        }
      }
      size_t name_start = i;
      while (i < all.size() && IsIdentChar(all[i])) ++i;
      if (i > name_start) {
        const std::string name = all.substr(name_start, i - name_start);
        // `const`, `auto` etc. would mean we mis-parsed; identifiers
        // that survive are declared variable/field names.
        if (name != "const" && name != "auto" && name != "typename") {
          names.insert(name);
        }
      }
    }
  }
  return names;
}

/// The identifier the range-for iterates: from `for (decl : expr)`,
/// the first identifier of `expr` (handles `m`, `*m`, `m.items()`,
/// `impl_->m` poorly on purpose — the declared-name set is per-file, so
/// a prefix match on any component is what we want). Returns every
/// identifier in the expression; the caller intersects with the
/// declared-name set.
std::vector<std::string> RangeForExprIdents(const std::string& code,
                                            size_t for_pos) {
  // Find the '(' after `for`, then the top-level ':' inside it.
  size_t open = code.find('(', for_pos);
  if (open == std::string::npos) return {};
  int depth = 0;
  size_t colon = std::string::npos;
  size_t close = std::string::npos;
  for (size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(') ++depth;
    if (c == ')') {
      --depth;
      if (depth == 0) {
        close = i;
        break;
      }
    }
    if (c == ':' && depth == 1) {
      // Skip `::`.
      if (i + 1 < code.size() && code[i + 1] == ':') {
        ++i;
        continue;
      }
      if (i > 0 && code[i - 1] == ':') continue;
      colon = i;
    }
  }
  if (colon == std::string::npos || close == std::string::npos) return {};
  std::vector<std::string> idents;
  size_t i = colon + 1;
  while (i < close) {
    if (IsIdentChar(code[i]) &&
        std::isdigit(static_cast<unsigned char>(code[i])) == 0) {
      size_t start = i;
      while (i < close && IsIdentChar(code[i])) ++i;
      idents.push_back(code.substr(start, i - start));
    } else {
      ++i;
    }
  }
  return idents;
}

// --- The linter -------------------------------------------------------------

void LintFile(const fs::path& path, std::vector<Finding>& findings,
              std::vector<Finding>& expected) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ptrider_lint: cannot open %s\n",
                 path.string().c_str());
    return;
  }
  std::vector<std::string> raw;
  std::string line;
  while (std::getline(in, line)) raw.push_back(line);
  const std::vector<CleanLine> lines = StripAndAnnotate(raw);
  const std::string rel = RepoRelative(path);

  std::set<std::string> unordered_names;
  if (InReportScope(rel)) {
    unordered_names = UnorderedDeclNames(lines);
    // Members are declared in the header and iterated in the .cpp:
    // fold the sibling header's declared names in too.
    if (path.extension() == ".cpp" || path.extension() == ".cc") {
      fs::path header = path;
      header.replace_extension(".h");
      std::ifstream hin(header);
      if (hin) {
        std::vector<std::string> hraw;
        std::string hline;
        while (std::getline(hin, hline)) hraw.push_back(hline);
        for (const std::string& name :
             UnorderedDeclNames(StripAndAnnotate(hraw))) {
          unordered_names.insert(name);
        }
      }
    }
  }

  auto emit = [&](size_t line_no, const char* rule, std::string msg) {
    if (lines[line_no].allowed.count(rule) != 0) return;
    findings.push_back({rel, line_no + 1, rule, std::move(msg)});
  };

  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    for (const std::string& rule : lines[li].expect) {
      expected.push_back({rel, li + 1, rule, ""});
    }
    if (code.empty()) continue;

    // raw-rand -------------------------------------------------------------
    if (!AllowedRawRand(rel)) {
      for (const char* fn : {"rand", "srand"}) {
        const size_t pos = FindToken(code, fn);
        if (pos != std::string::npos &&
            code.find('(', pos + std::strlen(fn)) ==
                pos + std::strlen(fn)) {
          emit(li, "raw-rand",
               std::string(fn) +
                   "() is seedless libc randomness; use util::Rng "
                   "(util/random.h)");
        }
      }
      if (ContainsToken(code, "random_device")) {
        emit(li, "raw-rand",
             "std::random_device is nondeterministic by design; use a "
             "seeded util::Rng (util/random.h)");
      }
    }

    // wall-clock -----------------------------------------------------------
    if (!AllowedWallClock(rel)) {
      for (const char* clk :
           {"system_clock", "steady_clock", "high_resolution_clock"}) {
        if (ContainsToken(code, clk)) {
          emit(li, "wall-clock",
               std::string("std::chrono::") + clk +
                   " on a simulation path makes reports machine-"
                   "dependent; use service/clock.h or util/timer.h");
        }
      }
    }

    // raw-thread -----------------------------------------------------------
    if (!AllowedRawThread(rel)) {
      size_t pos = 0;
      while ((pos = FindToken(code, "thread", pos)) != std::string::npos) {
        const bool qualified =
            pos >= 5 && code.compare(pos - 5, 5, "std::") == 0;
        const size_t end = pos + 6;
        const bool static_member_use =
            end + 1 < code.size() && code.compare(end, 2, "::") == 0;
        if (qualified && !static_member_use) {
          emit(li, "raw-thread",
               "raw std::thread outside dispatch::ThreadPool / "
               "service::WorkloadDriver; threads need owned join "
               "discipline");
          break;
        }
        pos = end;
      }
    }

    // raw-mutex ------------------------------------------------------------
    if (!AllowedRawMutex(rel)) {
      for (const char* prim :
           {"mutex", "condition_variable", "condition_variable_any",
            "lock_guard", "unique_lock", "scoped_lock", "shared_mutex",
            "shared_lock", "recursive_mutex", "timed_mutex"}) {
        size_t pos = 0;
        bool hit = false;
        while ((pos = FindToken(code, prim, pos)) != std::string::npos) {
          if (pos >= 5 && code.compare(pos - 5, 5, "std::") == 0) {
            hit = true;
            break;
          }
          pos += std::strlen(prim);
        }
        if (hit) {
          emit(li, "raw-mutex",
               std::string("std::") + prim +
                   " is invisible to the thread-safety analysis; use "
                   "util::Mutex / util::MutexLock / util::CondVar "
                   "(util/mutex.h)");
          break;
        }
      }
    }

    // direct-push -----------------------------------------------------------
    if (!AllowedDirectPush(rel)) {
      const size_t pos = FindToken(code, "TryPush");
      if (pos != std::string::npos &&
          code.find('(', pos + 7) == pos + 7) {
        emit(li, "direct-push",
             "direct queue TryPush bypasses the WorkloadDriver's "
             "offered/retried/gave-up accounting and unbalances the "
             "admission funnel; ingest through service::WorkloadDriver");
      }
    }

    // unordered-iter -------------------------------------------------------
    if (!unordered_names.empty()) {
      size_t pos = 0;
      while ((pos = FindToken(code, "for", pos)) != std::string::npos) {
        for (const std::string& ident :
             RangeForExprIdents(code, pos)) {
          if (unordered_names.count(ident) != 0) {
            emit(li, "unordered-iter",
                 "range-for over std::unordered_* `" + ident +
                     "`: hash iteration order is address-dependent and "
                     "this file feeds reports; iterate a sorted/stable "
                     "view instead");
            break;
          }
        }
        pos += 3;
      }
    }
  }
}

bool ShouldLint(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".cc" || ext == ".hpp";
}

void Collect(const fs::path& root, std::vector<fs::path>& files) {
  if (fs::is_regular_file(root)) {
    if (ShouldLint(root)) files.push_back(root);
    return;
  }
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "ptrider_lint: no such file or directory: %s\n",
                 root.string().c_str());
    return;
  }
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && ShouldLint(entry.path())) {
      files.push_back(entry.path());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ptrider_lint [--self-test] <dir-or-file>...\n"
          "rules: raw-rand wall-clock raw-thread unordered-iter "
          "raw-mutex direct-push\n"
          "escape: // lint: allow(<rule>) on the offending line\n");
      return 0;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "ptrider_lint: no inputs (try --help)\n");
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& root : roots) Collect(root, files);
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  std::vector<Finding> expected;
  for (const fs::path& f : files) LintFile(f, findings, expected);
  std::sort(findings.begin(), findings.end());
  std::sort(expected.begin(), expected.end());

  if (self_test) {
    // Fixture mode: the set of findings must equal the set of
    // `// expect: <rule>` markers, line for line.
    bool ok = true;
    auto key = [](const Finding& f) {
      return f.path + ":" + std::to_string(f.line) + ": " + f.rule;
    };
    std::set<std::string> got;
    for (const Finding& f : findings) got.insert(key(f));
    std::set<std::string> want;
    for (const Finding& f : expected) want.insert(key(f));
    for (const std::string& w : want) {
      if (got.count(w) == 0) {
        std::printf("MISSING expected finding: %s\n", w.c_str());
        ok = false;
      }
    }
    for (const std::string& g : got) {
      if (want.count(g) == 0) {
        std::printf("UNEXPECTED finding: %s\n", g.c_str());
        ok = false;
      }
    }
    std::printf("ptrider_lint self-test: %zu expected, %zu found — %s\n",
                want.size(), got.size(), ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  for (const Finding& f : findings) {
    std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("ptrider_lint: %zu finding(s) in %zu file(s) scanned\n",
                findings.size(), files.size());
    return 1;
  }
  std::printf("ptrider_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}
