// Seeded mutation test for the Chaco/METIS reader, the parser ffp_serve
// runs on whatever file a client names. Valid inputs are mutated (byte
// flips, truncation, duplicated/swapped/dropped lines, huge ids and
// counts) under a fixed budget, and every outcome must be one of:
//  - an ffp::Error whose message carries "line N";
//  - a graph that round-trips write_chaco -> read_chaco to the same digest.
// Every allocation made while parsing is watched: none may exceed what
// the IoLimits in force (or, without limits, the reader's trusted reserve)
// and the input's own size allow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "api/problem.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "multilevel/coarsen.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> watching{false};
std::atomic<std::size_t> largest{0};

}  // namespace

void* operator new(std::size_t size) {
  if (watching.load(std::memory_order_relaxed)) {
    std::size_t seen = largest.load(std::memory_order_relaxed);
    while (size > seen && !largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ffp {
namespace {

constexpr int kMutantsPerSeed = 400;

std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus = {
      "3 3\n2 3\n1 3\n1 2\n",
      "2 1 1\n2 7.5\n1 7.5\n",
      "2 1 10\n3 2\n4 1\n",
      "2 1 11\n5 2 2.5\n6 1 2.5\n",
      "% header comment\n3 2\n# another\n2\n1 3\n2\n",
      "3 1\n2\n1\n\n",
      "3 2 110 2\n1 4 1 2\n1 5 2 1 3\n1 6 1 2\n",
      "3 3 1\n3 1.5 2 0.5\n3 2.5 1 0.5\n2 2.5 1 1.5\n",
  };
  // A generated graph with non-integer edge and vertex weights: one
  // contraction level of a weighted geometric graph.
  const Graph g = with_random_weights(make_random_geometric(120, 0.2, 3),
                                      0.25, 4.5, 4);
  CoarsenOptions opt;
  opt.min_vertices = 60;
  opt.max_levels = 1;
  const auto chain = coarsen_chain(g, opt);
  for (const Graph* h : {&g, &chain.at(0).coarse}) {
    std::ostringstream out;
    write_chaco(*h, out);
    corpus.push_back(out.str());
  }
  return corpus;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + '\n';
  return out;
}

std::string mutate(const std::string& base, Rng& rng) {
  static const char* const kHuge[] = {
      "0",          "-1",         "2147483647",          "2147483648",
      "4294967296", "1e308",      "9223372036854775807", "99999999999999999999",
      "nan",        "-0",         "1e-320",              "+3"};
  static const std::string kBytes = " \t\r\n0123456789-+.eE%#x";
  std::string text = base;
  auto lines = lines_of(text);
  switch (rng.below(7)) {
    case 0:  // byte flips
      for (int i = 0, flips = 1 + static_cast<int>(rng.below(3)); i < flips;
           ++i) {
        if (text.empty()) break;
        const auto at = rng.below(text.size());
        text[at] = rng.bernoulli(0.5)
                       ? kBytes[rng.below(kBytes.size())]
                       : static_cast<char>(rng.below(256));
      }
      return text;
    case 1:  // truncation
      return text.substr(0, rng.below(text.size() + 1));
    case 2:  // duplicated line
      if (!lines.empty()) {
        const auto at = rng.below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
      }
      return join(lines);
    case 3:  // swapped lines
      if (lines.size() >= 2) {
        std::swap(lines[rng.below(lines.size())],
                  lines[rng.below(lines.size())]);
      }
      return join(lines);
    case 4:  // dropped line
      if (!lines.empty()) {
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(rng.below(lines.size())));
      }
      return join(lines);
    default: {  // a token replaced by a huge or degenerate number
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < text.size(); ++i) {
        const bool space = text[i] == ' ' || text[i] == '\n';
        if (!space && (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n')) {
          starts.push_back(i);
        }
      }
      if (starts.empty()) return text;
      // Header fields are hit half the time; ids and weights otherwise.
      const std::size_t pool = rng.bernoulli(0.5)
                                   ? std::min<std::size_t>(4, starts.size())
                                   : starts.size();
      const auto at = starts[rng.below(pool)];
      auto end = text.find_first_of(" \n", at);
      if (end == std::string::npos) end = text.size();
      return text.substr(0, at) + kHuge[rng.below(std::size(kHuge))] +
             text.substr(end);
    }
  }
}

struct Outcome {
  bool accepted = false;
  std::size_t largest_allocation = 0;
};

/// Parses `text` under `limits` and checks the outcome.
Outcome check_one(const std::string& text, const IoLimits& limits) {
  static const std::regex kLineNumber("line [0-9]+");
  largest = 0;
  Graph g;
  try {
    std::istringstream in(text);
    watching = true;
    g = read_chaco(in, limits);
    watching = false;
  } catch (const Error& e) {
    watching = false;
    EXPECT_TRUE(std::regex_search(e.what(), kLineNumber))
        << "rejection without a line number: " << e.what() << "\ninput:\n"
        << text;
    return {false, largest};
  }
  const Outcome out{true, largest};
  std::ostringstream written;
  write_chaco(g, written);
  std::istringstream again(written.str());
  EXPECT_EQ(api::graph_digest(read_chaco(again, limits)), api::graph_digest(g))
      << "accepted input does not round-trip:\n"
      << text;
  return out;
}

TEST(ChacoFuzz, MutantsAreRejectedWithLineNumbersOrRoundTrip) {
  IoLimits tight;
  tight.max_vertices = 256;
  tight.max_edges = 4096;
  // Elements are at most 16 bytes (a row's (id, weight) sort scratch);
  // vectors may double once past their need, and the line buffer is
  // bounded by the input itself.
  const auto bound = [](std::int64_t elements, std::size_t input) {
    return 2 * 16 * static_cast<std::size_t>(elements) + 2 * input + 4096;
  };
  const std::int64_t tight_elements =
      std::max(tight.max_vertices + 1, 2 * tight.max_edges);
  // Without limits, only the reader's trusted reserve (4M elements) and
  // the input's size bound what a header can make it allocate.
  const std::int64_t open_elements = std::int64_t{1} << 22;

  Rng rng(20061117);
  int accepted = 0;
  int total = 0;
  for (const std::string& base : seed_corpus()) {
    for (int i = 0; i < kMutantsPerSeed; ++i, ++total) {
      const std::string text = mutate(base, rng);
      const Outcome capped = check_one(text, tight);
      EXPECT_LE(capped.largest_allocation,
                bound(tight_elements, text.size()))
          << text;
      EXPECT_LE(check_one(text, IoLimits{}).largest_allocation,
                bound(open_elements, text.size()))
          << text;
      accepted += capped.accepted ? 1 : 0;
    }
  }
  // The mutants must exercise both outcomes, or the test shows nothing.
  EXPECT_GT(accepted, total / 50);
  EXPECT_LT(accepted, total - total / 50);
}

}  // namespace
}  // namespace ffp
