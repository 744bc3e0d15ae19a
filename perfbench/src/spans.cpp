#include "bench.hpp"

namespace perfbench {

int SpanLog::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start = seconds_since(origin_);
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = seconds_since(origin_);
  // Spans close in LIFO order (Timed is scoped), so `index` is the top.
  stack_.pop_back();
}

pcs::util::Json SpanLog::to_chrome() const {
  pcs::util::Json events{pcs::util::JsonArray{}};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    pcs::util::Json event{pcs::util::JsonObject{}};
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("pid", 1);
    event.set("tid", 1);
    event.set("ts", span.start * 1e6);
    event.set("dur", (span.end - span.start) * 1e6);
    pcs::util::Json args{pcs::util::JsonObject{}};
    args.set("id", static_cast<int>(i));
    args.set("parent", span.parent);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  pcs::util::Json doc{pcs::util::JsonObject{}};
  doc.set("traceEvents", std::move(events));
  return doc;
}

Timed::Timed(SpanLog* spans, const char* name, double* acc)
    : spans_(spans), acc_(acc), start_(Clock::now()) {
  if (spans_ != nullptr) span_ = spans_->open(name);
}

Timed::~Timed() {
  if (acc_ != nullptr) *acc_ += seconds_since(start_);
  if (spans_ != nullptr) spans_->close(span_);
}

}  // namespace perfbench
