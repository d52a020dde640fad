// In-memory span recorder for the traced run. Spans are taken from the
// benchmark's own code around each call into a library layer; nothing
// inside src/ is instrumented. They stay in memory until the run ends,
// then write_tsv() dumps them and layer_table() folds them into per-name
// call counts, total time, and self time (duration minus the time covered
// by child spans).
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< static string: the layer call this span wraps
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;
  std::uint64_t key = 0;  ///< trial index or job index
};

struct LayerRow {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t reserve = 1u << 20);

  /// Open a span now; returns its handle for end().
  std::int32_t begin(const char* name, std::int32_t parent, std::uint64_t key);
  void end(std::int32_t span);
  /// Record a span whose ends were observed elsewhere (wire events).
  std::int32_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int32_t parent,
                      std::uint64_t key);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per-name rows in first-seen order.
  [[nodiscard]] std::vector<LayerRow> layer_table() const;

  /// One line per span: index, name, start_ns, end_ns, parent, key.
  bool write_tsv(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  std::int64_t to_ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Print the layer table with each row's self-time share of `wall_ms`.
void print_layer_table(const Tracer& tracer, double wall_ms);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
