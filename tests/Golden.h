//===-- tests/Golden.h - golden-file reader and writer ----------*- C++ -*-===//
//
// The golden files under tests/goldens/ share one format: '#' comment
// lines, then one "[key]" line per record followed by its value lines,
// each \n-escaped. A test computes its records and hands them to
// checkGoldens(), which compares them against the file, or rewrites the
// file when CERB_UPDATE_GOLDENS is set.
//
//===----------------------------------------------------------------------===//
#ifndef CERB_TESTS_GOLDEN_H
#define CERB_TESTS_GOLDEN_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cerb::golden {

/// Record key -> value lines (unescaped).
using GoldenMap = std::map<std::string, std::vector<std::string>>;

inline std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

inline std::string unescape(const std::string &S) {
  std::string Out;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] == '\\' && I + 1 < S.size()) {
      ++I;
      Out += S[I] == 'n' ? '\n' : S[I];
    } else {
      Out += S[I];
    }
  }
  return Out;
}

/// \p Header is the file's '#' comment block, newline-terminated.
inline std::string serialize(const std::string &Header, const GoldenMap &M) {
  std::string Out = Header;
  for (const auto &[Key, Lines] : M) {
    Out += "\n[" + Key + "]\n";
    for (const std::string &L : Lines)
      Out += escape(L) + "\n";
  }
  return Out;
}

/// Reads \p Path into \p M; false with \p Err set when it cannot.
inline bool parse(const std::string &Path, GoldenMap &M, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open " + Path;
    return false;
  }
  std::string Line, Key;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    if (Line.front() == '[' && Line.back() == ']') {
      Key = Line.substr(1, Line.size() - 2);
      M[Key]; // a record may have no value lines
      continue;
    }
    if (Key.empty()) {
      Err = "stray line before first record: " + Line;
      return false;
    }
    M[Key].push_back(unescape(Line));
  }
  return true;
}

/// Checks \p Actual against the records of tests/goldens/\p File whose key
/// starts with \p Prefix. Under CERB_UPDATE_GOLDENS it rewrites those
/// records instead and keeps the others, so tests that own disjoint key
/// prefixes can share one file. \p Binary is the test executable that
/// regenerates the file; \p Description is its leading comment lines.
inline void checkGoldens(const std::string &File, const std::string &Binary,
                         const std::string &Description,
                         const GoldenMap &Actual,
                         std::string_view Prefix = "") {
  const std::string Path =
      std::string(CERB_SOURCE_DIR) + "/tests/goldens/" + File;
  const std::string Regenerate =
      "CERB_UPDATE_GOLDENS=1 ./build/tests/" + Binary;
  auto Owned = [&](const std::string &Key) {
    return Key.compare(0, Prefix.size(), Prefix) == 0;
  };

  if (std::getenv("CERB_UPDATE_GOLDENS")) {
    GoldenMap Merged;
    std::string Ignored;
    parse(Path, Merged, Ignored); // a missing file starts empty
    for (auto It = Merged.begin(); It != Merged.end();)
      It = Owned(It->first) ? Merged.erase(It) : std::next(It);
    Merged.insert(Actual.begin(), Actual.end());
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(Out)) << "cannot write " << Path;
    Out << serialize(Description + "# Regenerate: " + Regenerate + "\n",
                     Merged);
    GTEST_LOG_(INFO) << "regenerated " << Path;
    return;
  }

  GoldenMap Golden;
  std::string Err;
  ASSERT_TRUE(parse(Path, Golden, Err))
      << Err << " (regenerate: " << Regenerate << ")";
  for (const auto &[Key, Lines] : Golden)
    EXPECT_TRUE(!Owned(Key) || Actual.count(Key))
        << "golden record '" << Key
        << "' no longer produced (corpus changed? regenerate goldens)";
  for (const auto &[Key, Lines] : Actual) {
    auto It = Golden.find(Key);
    if (It == Golden.end()) {
      ADD_FAILURE() << "no golden record for '" << Key
                    << "' (new corpus entry? regenerate goldens)";
      continue;
    }
    EXPECT_EQ(It->second, Lines) << "golden record drifted for " << Key;
  }
}

} // namespace cerb::golden

#endif // CERB_TESTS_GOLDEN_H
