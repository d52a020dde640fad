#include "trace.hpp"

#include <fstream>
#include <map>

namespace perfbench {

Tracer::Tracer(std::size_t reserve) : origin_(Clock::now()) {
  spans_.reserve(reserve);
}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t key) {
  spans_.push_back({name, now_ns(), 0, parent, key});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::int32_t Tracer::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::int32_t parent,
                            std::uint64_t key) {
  spans_.push_back({name, to_ns(start), to_ns(end), parent, key});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<LayerRow> Tracer::layer_table() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<LayerRow> rows;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = index.try_emplace(s.name, rows.size());
    if (inserted) rows.push_back({s.name, 0, 0.0, 0.0});
    LayerRow& row = rows[it->second];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++row.calls;
    row.total_ms += dur * 1e-6;
    row.self_ms += (dur - child_ns[i]) * 1e-6;
  }
  return rows;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "span\tname\tstart_ns\tend_ns\tparent\tkey\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.key << '\n';
  }
  return static_cast<bool>(out);
}

void print_layer_table(const Tracer& tracer, double wall_ms) {
  std::printf("%-24s %10s %12s %12s %8s\n", "span", "calls", "total ms",
              "self ms", "self %");
  for (const LayerRow& row : tracer.layer_table()) {
    std::printf("%-24s %10llu %12.3f %12.3f %7.2f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.calls), row.total_ms,
                row.self_ms, 100.0 * ratio(row.self_ms, wall_ms));
  }
  std::printf("%-24s %10s %12.3f\n", "(traced wall)", "", wall_ms);
}

}  // namespace perfbench
