#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/strings.h"

namespace rpas::obs {

/// Minimal JSON string escaper (names and run labels are plain ASCII in
/// practice; quotes, backslashes and control bytes are escaped anyway).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

/// Deterministic span sort key: (name, tag); full-mode exports keep buffer
/// order instead.
std::vector<TraceEvent> SortedSpans(const TraceBuffer* trace) {
  std::vector<TraceEvent> events = trace->Snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.name != b.name) {
                       return a.name < b.name;
                     }
                     return a.tag < b.tag;
                   });
  return events;
}

}  // namespace

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  // Shortest decimal form that round-trips: try increasing precision.
  for (int precision = 15; precision <= 17; ++precision) {
    std::string candidate = StrFormat("%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(candidate.c_str(), "%lf", &parsed);
    if (parsed == value) {
      return candidate;
    }
  }
  return StrFormat("%.17g", value);
}

RunExport::RunExport(const MetricsRegistry* metrics, const TraceBuffer* trace,
                     std::vector<ScalingDecision> decisions,
                     ExportOptions options)
    : metrics_(metrics),
      trace_(trace),
      decisions_(std::move(decisions)),
      options_(options) {}

std::string RunExport::ToJsonl() const {
  std::ostringstream out;
  const bool det = options_.deterministic;
  out << "{\"type\":\"run\",\"schema\":\"rpas_obs.v1\",\"deterministic\":"
      << (det ? "true" : "false") << "}\n";

  if (metrics_ != nullptr) {
    for (const auto& [name, counter] : metrics_->Counters()) {
      if (det && !counter->deterministic()) {
        continue;
      }
      out << "{\"type\":\"counter\",\"name\":\"" << JsonEscape(name)
          << "\",\"value\":" << counter->value() << "}\n";
    }
    for (const auto& [name, gauge] : metrics_->Gauges()) {
      if (det && !gauge->deterministic()) {
        continue;
      }
      out << "{\"type\":\"gauge\",\"name\":\"" << JsonEscape(name)
          << "\",\"value\":" << FormatDouble(gauge->value()) << "}\n";
    }
    for (const auto& [name, hist] : metrics_->Histograms()) {
      if (det && !hist->deterministic()) {
        continue;
      }
      out << "{\"type\":\"histogram\",\"name\":\"" << JsonEscape(name)
          << "\",\"count\":" << hist->count();
      if (const uint64_t nans = hist->nan_count(); nans > 0) {
        out << ",\"nan\":" << nans;
      }
      if (hist->count() > 0) {
        out << ",\"min\":" << FormatDouble(hist->min())
            << ",\"max\":" << FormatDouble(hist->max());
        if (!det) {
          out << ",\"sum\":" << FormatDouble(hist->sum());
        }
        out << ",\"p50\":" << FormatDouble(hist->Quantile(0.5))
            << ",\"p90\":" << FormatDouble(hist->Quantile(0.9))
            << ",\"p99\":" << FormatDouble(hist->Quantile(0.99));
        out << ",\"buckets\":[";
        bool first = true;
        for (size_t i = 0; i < hist->NumBuckets(); ++i) {
          const uint64_t n = hist->BucketCount(i);
          if (n == 0) {
            continue;
          }
          if (!first) {
            out << ",";
          }
          first = false;
          out << "{\"le\":";
          if (i < hist->bounds().size()) {
            out << FormatDouble(hist->bounds()[i]);
          } else {
            out << "\"inf\"";
          }
          out << ",\"n\":" << n << "}";
        }
        out << "]";
      }
      out << "}\n";
    }
  }

  if (trace_ != nullptr) {
    if (det) {
      for (const TraceEvent& e : SortedSpans(trace_)) {
        out << "{\"type\":\"span\",\"name\":\"" << JsonEscape(e.name)
            << "\",\"tag\":" << e.tag << "}\n";
      }
    } else {
      for (const TraceEvent& e : trace_->Snapshot()) {
        out << "{\"type\":\"span\",\"name\":\"" << JsonEscape(e.name)
            << "\",\"tag\":" << e.tag << ",\"start_ns\":" << e.start_ns
            << ",\"dur_ns\":" << e.duration_ns << ",\"id\":" << e.id
            << ",\"parent\":" << e.parent << ",\"depth\":" << e.depth
            << ",\"thread\":" << e.thread << "}\n";
      }
      if (trace_->dropped() > 0) {
        out << "{\"type\":\"trace_dropped\",\"count\":" << trace_->dropped()
            << "}\n";
      }
    }
  }

  for (const ScalingDecision& d : decisions_) {
    out << "{\"type\":\"decision\",\"run\":\"" << JsonEscape(d.run)
        << "\",\"step\":" << d.step << ",\"target\":" << d.target_nodes
        << ",\"active\":" << d.active_nodes
        << ",\"workload\":" << FormatDouble(d.workload)
        << ",\"util\":" << FormatDouble(d.utilization)
        << ",\"under\":" << (d.under_provisioned ? 1 : 0)
        << ",\"slo\":" << (d.slo_violated ? 1 : 0)
        << ",\"faulted\":" << (d.faulted ? 1 : 0) << "}\n";
  }
  return out.str();
}

std::string RunExport::ToCsv() const {
  std::ostringstream out;
  const bool det = options_.deterministic;
  // Fixed union-of-fields header; every record type fills its columns and
  // leaves the rest empty, so one flat file covers the whole run.
  out << "record,name,tag,value,count,min,max,p50,p90,p99,run,step,target,"
         "active,workload,util,under,slo,faulted\n";

  if (metrics_ != nullptr) {
    for (const auto& [name, counter] : metrics_->Counters()) {
      if (det && !counter->deterministic()) {
        continue;
      }
      out << "counter," << CsvEscape(name) << ",," << counter->value()
          << ",,,,,,,,,,,,,,,\n";
    }
    for (const auto& [name, gauge] : metrics_->Gauges()) {
      if (det && !gauge->deterministic()) {
        continue;
      }
      out << "gauge," << CsvEscape(name) << ",,"
          << FormatDouble(gauge->value()) << ",,,,,,,,,,,,,,,\n";
    }
    for (const auto& [name, hist] : metrics_->Histograms()) {
      if (det && !hist->deterministic()) {
        continue;
      }
      out << "histogram," << CsvEscape(name) << ",,";
      if (!det && hist->count() > 0) {
        out << FormatDouble(hist->sum());
      }
      out << "," << hist->count() << ",";
      if (hist->count() > 0) {
        out << FormatDouble(hist->min()) << "," << FormatDouble(hist->max())
            << "," << FormatDouble(hist->Quantile(0.5)) << ","
            << FormatDouble(hist->Quantile(0.9)) << ","
            << FormatDouble(hist->Quantile(0.99));
      } else {
        out << ",,,,";
      }
      out << ",,,,,,,,,\n";
    }
  }

  if (trace_ != nullptr) {
    const std::vector<TraceEvent> events =
        det ? SortedSpans(trace_) : trace_->Snapshot();
    for (const TraceEvent& e : events) {
      out << "span," << CsvEscape(e.name) << "," << e.tag << ",";
      if (!det) {
        out << e.duration_ns;  // value column = duration (ns)
      }
      out << ",,,,,,,,,,,,,,,\n";
    }
  }

  for (const ScalingDecision& d : decisions_) {
    out << "decision,,,,,,,,,," << CsvEscape(d.run) << "," << d.step << ","
        << d.target_nodes << "," << d.active_nodes << ","
        << FormatDouble(d.workload) << "," << FormatDouble(d.utilization)
        << "," << (d.under_provisioned ? 1 : 0) << ","
        << (d.slo_violated ? 1 : 0) << "," << (d.faulted ? 1 : 0) << "\n";
  }
  return out.str();
}

}  // namespace rpas::obs
