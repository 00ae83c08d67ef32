#include "metrics/emitter.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace ltnc::metrics {
namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_value(std::ostream& out, const RunRecord::Value& value,
                 bool csv) {
  if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    out << *u;
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    out << *i;
  } else if (const auto* d = std::get_if<double>(&value)) {
    std::ostringstream tmp;  // fixed precision, independent of `out` state
    tmp << std::setprecision(std::numeric_limits<double>::max_digits10)
        << *d;
    out << tmp.str();
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out << (*b ? "true" : "false");
  } else {
    const auto& s = std::get<std::string>(value);
    if (csv) {
      if (s.find_first_of(",\"\n\r") == std::string::npos) {
        out << s;
      } else {
        // RFC 4180: wrap in quotes, double any embedded quote.
        out << '"';
        for (const char c : s) {
          if (c == '"') out << '"';
          out << c;
        }
        out << '"';
      }
    } else {
      write_json_string(out, s);
    }
  }
}

}  // namespace

void RunRecord::set(std::string_view key, Value value) {
  for (Field& f : fields_) {
    if (f.key == key) {
      f.value = std::move(value);
      return;
    }
  }
  fields_.push_back(Field{std::string(key), std::move(value)});
}

bool RunRecord::has(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return true;
  }
  return false;
}

const RunRecord::Value& RunRecord::at(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return f.value;
  }
  LTNC_CHECK_MSG(false, "RunRecord field not found");
  return fields_.front().value;  // unreachable
}

RunRecord sim_run_record(const dissem::SimResult& result) {
  RunRecord r;
  r.set("scheme", std::string(session::scheme_name(result.scheme)));
  r.set("num_nodes", static_cast<std::uint64_t>(result.config.num_nodes));
  r.set("k", static_cast<std::uint64_t>(result.config.k));
  r.set("payload_bytes",
        static_cast<std::uint64_t>(result.config.payload_bytes));
  r.set("num_contents",
        static_cast<std::uint64_t>(result.config.num_contents));
  r.set("seed", result.config.seed);
  r.set("rounds_run", static_cast<std::uint64_t>(result.rounds_run));
  r.set("nodes_complete", static_cast<std::uint64_t>(result.nodes_complete));
  r.set("nodes_churned", static_cast<std::uint64_t>(result.nodes_churned));
  r.set("all_complete", result.all_complete);
  r.set("payloads_verified", result.payloads_verified);
  r.set("mean_completion_round", result.mean_completion());
  r.set("overhead", result.overhead());
  r.set("attempts", result.traffic.attempts);
  r.set("aborted", result.traffic.aborted);
  r.set("lost", result.traffic.lost);
  r.set("payload_transfers", result.traffic.payload_transfers);
  r.set("header_bytes", result.traffic.header_bytes);
  r.set("payload_bytes_wire", result.traffic.payload_bytes);
  r.set("feedback_bytes", result.traffic.feedback_bytes);
  r.set("control_bytes", result.traffic.control_bytes);
  r.set("wire_bytes_total", result.traffic.wire_bytes_total());
  r.set("overheard_useful", result.overheard_useful);
  return r;
}

void write_json(std::ostream& out, const std::vector<RunRecord>& records) {
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << "  {";
    const auto& fields = records[i].fields();
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f != 0) out << ", ";
      write_json_string(out, fields[f].key);
      out << ": ";
      write_value(out, fields[f].value, /*csv=*/false);
    }
    out << (i + 1 < records.size() ? "},\n" : "}\n");
  }
  out << "]\n";
}

void write_csv(std::ostream& out, const std::vector<RunRecord>& records) {
  if (records.empty()) return;
  const auto& header = records.front().fields();
  for (std::size_t f = 0; f < header.size(); ++f) {
    if (f != 0) out << ',';
    out << header[f].key;
  }
  out << '\n';
  for (const RunRecord& record : records) {
    const auto& fields = record.fields();
    LTNC_CHECK_MSG(fields.size() == header.size(),
                   "CSV records must share one field layout");
    for (std::size_t f = 0; f < fields.size(); ++f) {
      LTNC_CHECK_MSG(fields[f].key == header[f].key,
                     "CSV records must share one field layout");
      if (f != 0) out << ',';
      write_value(out, fields[f].value, /*csv=*/true);
    }
    out << '\n';
  }
}

}  // namespace ltnc::metrics
