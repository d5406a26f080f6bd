#include "spans.hpp"

#include "obs/json.hpp"
#include "support/assert.hpp"

namespace ttsc::perf {

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(&spans) {
  if (!spans.enabled_) return;
  index_ = static_cast<int>(spans.spans_.size());
  const int parent = spans.open_.empty() ? -1 : spans.open_.back();
  spans.spans_.push_back(Span{name, parent, Clock::now()});
  spans.open_.push_back(index_);
}

double Spans::Scope::close() {
  if (index_ < 0) return seconds_;
  TTSC_ASSERT(!spans_->open_.empty() && spans_->open_.back() == index_,
              "spans must close innermost first");
  Span& s = spans_->spans_[static_cast<std::size_t>(index_)];
  s.seconds = std::chrono::duration<double>(Clock::now() - s.start).count();
  if (s.parent >= 0) spans_->spans_[static_cast<std::size_t>(s.parent)].child_seconds += s.seconds;
  spans_->open_.pop_back();
  seconds_ = s.seconds;
  index_ = -1;
  return seconds_;
}

std::map<std::string, double> Spans::self_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.seconds - s.child_seconds;
  return out;
}

std::string Spans::chrome_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("ph");
    w.value("X");
    w.key("pid");
    w.value(1);
    w.key("tid");
    w.value(1);
    w.key("ts");
    w.value(std::chrono::duration<double, std::micro>(s.start - epoch_).count());
    w.key("dur");
    w.value(s.seconds * 1e6);
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::int64_t>(i));
    w.key("parent");
    w.value(static_cast<std::int64_t>(s.parent));
    w.key("self_us");
    w.value((s.seconds - s.child_seconds) * 1e6);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace ttsc::perf
