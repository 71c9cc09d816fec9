#include "obs/run_record.hpp"

#include <ctime>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace ckp {

namespace {

// Reads one line of `path`, stripped of trailing whitespace; "" on failure.
std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::string line;
  std::getline(in, line);
  while (!line.empty() &&
         (line.back() == '\n' || line.back() == '\r' || line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

// Resolves .git/HEAD without shelling out to git: follow the "ref: " pointer
// to the loose ref file, fall back to packed-refs, and accept a detached
// HEAD (the sha itself) as-is.
std::string resolve_git_head(const std::string& repo_root) {
  const std::string head = read_first_line(repo_root + "/.git/HEAD");
  if (head.empty()) return "unknown";
  if (head.rfind("ref: ", 0) != 0) return head;  // detached HEAD
  const std::string ref = head.substr(5);
  const std::string loose = read_first_line(repo_root + "/.git/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(repo_root + "/.git/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    // "<40-hex-sha> <refname>"; '^' peel lines and comments never match.
    if (line.size() > 41 && line[40] == ' ' && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

}  // namespace

RunProvenance collect_provenance() {
  RunProvenance p;
#ifdef CKP_SOURCE_DIR
  p.git_sha = resolve_git_head(CKP_SOURCE_DIR);
#else
  p.git_sha = "unknown";
#endif
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  char stamp[32];
  if (gmtime_r(&now, &utc) != nullptr &&
      std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc) > 0) {
    p.timestamp = stamp;
  } else {
    p.timestamp = "unknown";
  }
  char host[256] = {0};
  p.host = gethostname(host, sizeof host - 1) == 0 && host[0] != '\0'
               ? host
               : "unknown";
#ifdef CKP_BUILD_FLAGS
  p.build_flags = CKP_BUILD_FLAGS;
#else
  p.build_flags = "unknown";
#endif
  return p;
}

void RunRecord::metric(const std::string& name, double value) {
  raw_json_.clear();
  for (auto& [k, v] : metrics_) {
    if (k == name) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

void RunRecord::absorb(const MetricsRegistry& registry) {
  for (const auto& [name, value] : registry.snapshot()) {
    metric(name, value);
  }
}

std::string RunRecord::to_json() const {
  if (!raw_json_.empty()) return raw_json_;
  JsonWriter w;
  w.begin_object();
  w.key("bench").value(bench);
  w.key("algorithm").value(algorithm);
  if (!graph_family.empty()) w.key("graph_family").value(graph_family);
  w.key("n").value(n);
  if (delta != 0) w.key("delta").value(delta);
  if (seed != 0) w.key("seed").value(seed);
  w.key("rounds").value(rounds);
  if (wall_seconds != 0.0) w.key("wall_seconds").value(wall_seconds);
  w.key("verified").value(verified);
  if (!provenance.empty()) {
    w.key("provenance").begin_object();
    if (!provenance.git_sha.empty()) w.key("git_sha").value(provenance.git_sha);
    if (!provenance.timestamp.empty()) {
      w.key("timestamp").value(provenance.timestamp);
    }
    if (!provenance.host.empty()) w.key("host").value(provenance.host);
    if (!provenance.build_flags.empty()) {
      w.key("build_flags").value(provenance.build_flags);
    }
    w.end_object();
  }
  if (!trace.empty()) w.key("trace").raw(trace.to_json());
  if (!metrics_.empty()) {
    w.key("metrics").begin_object();
    for (const auto& [name, value] : metrics_) w.key(name).value(value);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

RunRecord RunRecord::from_json_line(const std::string& line) {
  const JsonValue doc = json_parse(line);
  CKP_CHECK_MSG(doc.is_object(), "run record line is not a JSON object");
  RunRecord rec;
  rec.bench = doc.at("bench").as_string();
  rec.algorithm = doc.at("algorithm").as_string();
  if (const JsonValue* v = doc.find("graph_family")) {
    rec.graph_family = v->as_string();
  }
  rec.n = static_cast<std::uint64_t>(doc.at("n").as_number());
  if (const JsonValue* v = doc.find("delta")) {
    rec.delta = static_cast<int>(v->as_number());
  }
  if (const JsonValue* v = doc.find("seed")) {
    rec.seed = static_cast<std::uint64_t>(v->as_number());
  }
  rec.rounds = static_cast<int>(doc.at("rounds").as_number());
  if (const JsonValue* v = doc.find("wall_seconds")) {
    rec.wall_seconds = v->as_number();
  }
  const JsonValue& verified = doc.at("verified");
  CKP_CHECK_MSG(verified.type == JsonValue::Type::Bool,
                "run record: 'verified' is not a boolean");
  rec.verified = verified.boolean;
  if (const JsonValue* v = doc.find("provenance")) {
    CKP_CHECK_MSG(v->is_object(), "run record: 'provenance' is not an object");
    if (const JsonValue* f = v->find("git_sha")) {
      rec.provenance.git_sha = f->as_string();
    }
    if (const JsonValue* f = v->find("timestamp")) {
      rec.provenance.timestamp = f->as_string();
    }
    if (const JsonValue* f = v->find("host")) {
      rec.provenance.host = f->as_string();
    }
    if (const JsonValue* f = v->find("build_flags")) {
      rec.provenance.build_flags = f->as_string();
    }
  }
  if (const JsonValue* v = doc.find("trace")) {
    CKP_CHECK_MSG(v->is_array(), "run record: 'trace' is not an array");
    for (const JsonValue& phase : v->array) {
      CKP_CHECK_MSG(phase.is_object(),
                    "run record: trace phase is not an object");
      const JsonValue* detail = phase.find("detail");
      const JsonValue* seconds = phase.find("seconds");
      rec.trace.record(
          phase.at("name").as_string(),
          static_cast<int>(phase.at("rounds").as_number()),
          detail != nullptr
              ? static_cast<std::int64_t>(detail->as_number()) : 0,
          seconds != nullptr ? seconds->as_number() : 0.0);
    }
  }
  if (const JsonValue* v = doc.find("metrics")) {
    CKP_CHECK_MSG(v->is_object(), "run record: 'metrics' is not an object");
    for (const auto& [name, value] : v->object) {
      rec.metrics_.emplace_back(name, value.as_number());
    }
  }
  rec.raw_json_ = line;
  return rec;
}

JsonlWriter::JsonlWriter(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  out_.open(path_, std::ios::trunc);
  CKP_CHECK_MSG(out_.good(), "cannot open JSONL output file " << path_);
}

void JsonlWriter::write(const RunRecord& record) {
  if (!enabled()) return;
  out_ << record.to_json() << '\n';
  CKP_CHECK_MSG(out_.good(), "JSONL write failed for " << path_);
  ++rows_;
}

}  // namespace ckp
