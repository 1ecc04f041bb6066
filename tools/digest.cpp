// prlc_digest — a short, committable fingerprint of a large output file.
//
// Usage:
//   prlc_digest FILE
//   prlc_digest --check EXPECTED FILE
//
// Prints the 64-bit FNV-1a of FILE's bytes and its line count. A JSON
// Lines file (name ending in ".jsonl", the journal exports) also gets one
// line per event type and per series name with the number of records that
// carry it, sorted, so a mismatch says which kind of record moved:
//
//   fnv1a64 9f2c0d4e51a7b3c8
//   lines 31482
//   event node_failed 4960
//   series fault.retries 128
//
// --check compares FILE's digest with the digest stored in EXPECTED (the
// output of an earlier `prlc_digest FILE`) and prints every line that is
// only in one of them: "-" for the expected side, "+" for FILE's. Exit
// codes: 0 match, 1 mismatch or an unreadable file, 64 usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace {

/// The value of the string field `"key":"..."` in one journal line, or an
/// empty view. The journal writer puts no escapes in event or series
/// names, so the value ends at the next quote.
std::string_view string_field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + key.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string_view::npos) return {};
  return line.substr(start, end - start);
}

std::string digest(const std::string& path, const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  std::size_t lines = 0;
  std::map<std::string, std::size_t> kinds;
  const bool jsonl = path.ends_with(".jsonl");
  for (std::size_t start = 0; start < bytes.size();) {
    std::size_t end = bytes.find('\n', start);
    if (end == std::string::npos) end = bytes.size();
    ++lines;
    if (jsonl) {
      const std::string_view line(bytes.data() + start, end - start);
      if (const auto event = string_field(line, "\"event\":\""); !event.empty()) {
        ++kinds["event " + std::string(event)];
      } else if (const auto series = string_field(line, "\"series\":\""); !series.empty()) {
        ++kinds["series " + std::string(series)];
      }
    }
    start = end + 1;
  }
  char head[64];
  std::snprintf(head, sizeof head, "fnv1a64 %016llx\nlines %zu\n",
                static_cast<unsigned long long>(hash), lines);
  std::string out = head;
  for (const auto& [kind, count] : kinds) out += kind + " " + std::to_string(count) + "\n";
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) out.emplace_back(text, start, end - start);
    start = end + 1;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: prlc_digest FILE\n       prlc_digest --check EXPECTED FILE\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc == 4 && std::string_view(argv[1]) == "--check";
  if (!check && (argc != 2 || std::string_view(argv[1]).starts_with("--"))) return usage();
  const std::string file = argv[argc - 1];
  std::string actual;
  std::string expected;
  try {
    actual = digest(file, prlc::json::read_file(file));
    if (check) expected = prlc::json::read_file(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prlc_digest: %s\n", e.what());
    return 1;
  }
  if (!check) {
    std::fputs(actual.c_str(), stdout);
    return 0;
  }
  const std::vector<std::string> want = lines_of(expected);
  const std::vector<std::string> got = lines_of(actual);
  if (want == got) {
    std::printf("prlc_digest: %s matches %s\n", file.c_str(), argv[2]);
    return 0;
  }
  std::printf("prlc_digest: %s differs from %s\n", file.c_str(), argv[2]);
  for (const std::string& line : want) {
    if (std::ranges::find(got, line) == got.end()) std::printf("- %s\n", line.c_str());
  }
  for (const std::string& line : got) {
    if (std::ranges::find(want, line) == want.end()) std::printf("+ %s\n", line.c_str());
  }
  return 1;
}
