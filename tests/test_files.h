// File helpers shared by the suites that write manifests, segments and
// WAL logs under a per-test prefix in the gtest temp directory, and by
// the suites that corrupt such files byte by byte.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "wal/wal_format.h"

namespace alex::test {

/// `<gtest temp dir>/<name>`: the prefix a test's files live under.
inline std::string TempPrefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Every file at the prefix (`<base>.` followed by anything), by name.
inline std::set<std::string> FilesAt(const std::string& prefix) {
  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  std::vector<std::string> names;
  wal::ListDirectory(dir, &names);
  std::set<std::string> out;
  for (const std::string& name : names) {
    if (name.size() > base.size() &&
        name.compare(0, base.size(), base) == 0 &&
        name[base.size()] == '.') {
      out.insert(name);
    }
  }
  return out;
}

/// Removes every file at the prefix: manifest, segments, WAL logs and
/// any stray a test planted.
inline void RemovePrefixFiles(const std::string& prefix) {
  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  for (const std::string& name : FilesAt(prefix)) {
    std::remove((dir + "/" + name).c_str());
  }
}

/// The whole file at `path`.
inline std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

/// Replaces the file at `path` with `bytes`.
inline void WriteAll(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {  // an empty vector's data() may be null
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

}  // namespace alex::test
