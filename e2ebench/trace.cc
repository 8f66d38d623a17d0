#include "trace.h"

#include <cstdio>
#include <fstream>

namespace e2ebench {

int Tracer::Begin(const std::string& name, int fit_id) {
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.fit_id = fit_id;
  span.start_ns = Ns(Clock::now());
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = Ns(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Add(const std::string& name, int parent, int fit_id,
                Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.fit_id = fit_id;
  span.start_ns = Ns(start);
  span.end_ns = Ns(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& context) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < context.size(); ++i) {
    out << (i ? "," : "") << JsonString(context[i].first) << ":"
        << context[i].second;
  }
  out << "},\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"e2e_bench\"}}";
  char buf[160];
  for (const Span& s : spans_) {
    // Trace-event times are microseconds; three decimals keep the ns.
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << ",\n{\"name\":" << JsonString(s.name)
        << ",\"cat\":\"e2ebench\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
        << ",\"args\":{\"span_id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"fit_id\":" << s.fit_id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", ch);
          out += esc;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

}  // namespace e2ebench
