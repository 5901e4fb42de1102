#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::string_view layer_name(Layer layer) {
  static constexpr std::array<std::string_view, kLayerCount> kNames = {
      "trace.residual",   "workload.generate", "iosim.execute",   "darshan.write",
      "darshan.read",     "util.deflate",      "util.inflate",    "core.add",
      "core.merge",       "core.fingerprint",  "archive.build",   "archive.stage",
      "archive.commit",   "archive.scan",      "archive.compact", "service.get",
      "service.get_window", "service.append",
  };
  return kNames[static_cast<std::size_t>(layer)];
}

Tracer::Tracer() : origin_ns_(steady_ns()) { spans_.reserve(1 << 16); }

std::size_t Tracer::begin(Layer layer) {
  Span s;
  s.layer = layer;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  spans_.push_back(s);
  const std::size_t idx = spans_.size() - 1;
  stack_.push_back(idx);
  spans_[idx].start_ns = steady_ns() - origin_ns_;
  return idx;
}

std::size_t Tracer::begin_op(std::uint64_t op) {
  if (!stack_.empty()) throw std::logic_error("tracer: op opened inside a span");
  op_ = static_cast<std::uint32_t>(op);
  return begin(Layer::kOp);
}

void Tracer::end(std::size_t idx) {
  const std::uint64_t t = steady_ns() - origin_ns_;
  if (stack_.empty() || stack_.back() != idx) throw std::logic_error("tracer: unbalanced span");
  stack_.pop_back();
  spans_[idx].end_ns = t;
}

Layer Tracer::current() const {
  return stack_.empty() ? Layer::kOp : spans_[stack_.back()].layer;
}

void Tracer::carve(std::size_t idx, Layer to, double seconds) {
  if (seconds > 0) carves_.push_back({idx, to, seconds});
}

double Tracer::duration_s(std::size_t idx) const {
  return static_cast<double>(spans_[idx].end_ns - spans_[idx].start_ns) * 1e-9;
}

Tracer::Ledger Tracer::ledger() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration_s(i);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  Ledger l;
  for (const Carve& c : carves_) {
    const double moved = std::clamp(c.seconds, 0.0, std::max(0.0, self[c.span]));
    self[c.span] -= moved;
    l.self_s[static_cast<std::size_t>(c.to)] += moved;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    l.self_s[static_cast<std::size_t>(spans_[i].layer)] += self[i];
    if (spans_[i].parent < 0) {
      l.op_wall_s += duration_s(i);
      l.ops += 1;
    }
  }
  l.spans = spans_.size();
  return l;
}

void Tracer::write_tsv(const std::filesystem::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("tracer: cannot write " + path.string());
  std::fprintf(f, "op\tlayer\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    const std::string_view name = layer_name(s.layer);
    std::fprintf(f, "%u\t%.*s\t%d\t%llu\t%llu\n", s.op, static_cast<int>(name.size()),
                 name.data(), s.parent, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

}  // namespace perfbench
