#include "screen/report.h"

#include "common/check.h"
#include "common/error.h"

namespace qdb::screen {

namespace {

// Version 1 files held %.10g-rounded doubles; checkpoints of that version
// are refused, never resumed.
constexpr int kCheckpointVersion = 2;
constexpr int kReportVersion = 2;

RecordHeader checkpoint_header(std::uint64_t fingerprint) {
  return {"screen-checkpoint", kCheckpointVersion, fingerprint};
}

Json stage_pose_json(const StagePose& sp) {
  Json doc = pose_json(sp.pose);
  doc.set("score", sp.score);
  return doc;
}

StagePose stage_pose_from_json(const Json& doc) {
  StagePose sp;
  sp.pose = pose_from_json(doc);
  sp.score = doc.at("score").as_double();
  return sp;
}

Json stage1_json(const Stage1Result& r) {
  Json doc = Json::object();
  doc.set("index", static_cast<std::int64_t>(r.index));
  doc.set("id", r.id);
  doc.set("best_score", r.best_score);
  Json poses = Json::array();
  for (const StagePose& sp : r.poses) poses.push_back(stage_pose_json(sp));
  doc.set("poses", std::move(poses));
  return doc;
}

Stage1Result stage1_from_json(const Json& doc) {
  Stage1Result r;
  r.index = static_cast<std::uint64_t>(doc.at("index").as_int());
  r.id = doc.at("id").as_string();
  r.best_score = doc.at("best_score").as_double();
  for (const Json& p : doc.at("poses").as_array()) {
    r.poses.push_back(stage_pose_from_json(p));
  }
  return r;
}

Json hit_json(const ScreenHit& h, int rank) {
  Json doc = Json::object();
  doc.set("rank", rank);
  doc.set("id", h.id);
  doc.set("index", static_cast<std::int64_t>(h.index));
  doc.set("stage1_score", h.stage1_score);
  doc.set("affinity", h.affinity);
  doc.set("num_atoms", h.num_atoms);
  doc.set("num_torsions", h.num_torsions);
  doc.set("pose", pose_json(h.pose));
  return doc;
}

ScreenHit hit_from_json(const Json& doc) {
  ScreenHit h;
  h.id = doc.at("id").as_string();
  h.index = static_cast<std::uint64_t>(doc.at("index").as_int());
  h.stage1_score = doc.at("stage1_score").as_double();
  h.affinity = doc.at("affinity").as_double();
  h.num_atoms = static_cast<int>(doc.at("num_atoms").as_int());
  h.num_torsions = static_cast<int>(doc.at("num_torsions").as_int());
  h.pose = pose_from_json(doc.at("pose"));
  return h;
}

}  // namespace

Json pose_json(const Pose& pose) {
  Json doc = Json::object();
  doc.set("tx", pose.translation.x);
  doc.set("ty", pose.translation.y);
  doc.set("tz", pose.translation.z);
  doc.set("qw", pose.orientation.w);
  doc.set("qx", pose.orientation.x);
  doc.set("qy", pose.orientation.y);
  doc.set("qz", pose.orientation.z);
  Json torsions = Json::array();
  for (double t : pose.torsions) torsions.push_back(t);
  doc.set("torsions", std::move(torsions));
  return doc;
}

Pose pose_from_json(const Json& doc) {
  Pose pose;
  pose.translation = Vec3{doc.at("tx").as_double(), doc.at("ty").as_double(),
                          doc.at("tz").as_double()};
  pose.orientation.w = doc.at("qw").as_double();
  pose.orientation.x = doc.at("qx").as_double();
  pose.orientation.y = doc.at("qy").as_double();
  pose.orientation.z = doc.at("qz").as_double();
  for (const Json& t : doc.at("torsions").as_array()) {
    pose.torsions.push_back(t.as_double());
  }
  return pose;
}

std::string serialize_report(const ScreenReport& report) {
  QDB_REQUIRE(!report.preempted, "cannot serialize a preempted screen report");
  Json doc =
      record_header({"screen-report", kReportVersion, report.options_fingerprint});
  doc.set("receptor", report.receptor_tag);
  Json lib = Json::object();
  lib.set("seed", static_cast<std::int64_t>(report.library.seed));
  lib.set("size", static_cast<std::int64_t>(report.library.size));
  doc.set("library", std::move(lib));
  doc.set("ligands_screened", static_cast<std::int64_t>(report.ligands_screened));
  doc.set("stage1_survivors", static_cast<std::int64_t>(report.stage1_survivors));
  doc.set("keep_rate", report.keep_rate());
  doc.set("top_k", report.top_k);
  Json hits = Json::array();
  for (std::size_t i = 0; i < report.hits.size(); ++i) {
    hits.push_back(hit_json(report.hits[i], static_cast<int>(i) + 1));
  }
  doc.set("hits", std::move(hits));
  return doc.dump(2) + "\n";
}

ScreenReport report_from_bytes(const std::string& bytes) {
  const Json doc = Json::parse(bytes);
  if (!doc.contains("kind") || doc.at("kind").as_string() != "screen-report") {
    throw IoError("not a screen report");
  }
  ScreenReport report;
  report.receptor_tag = doc.at("receptor").as_string();
  report.library.seed = static_cast<std::uint64_t>(doc.at("library").at("seed").as_int());
  report.library.size = static_cast<std::uint64_t>(doc.at("library").at("size").as_int());
  report.options_fingerprint =
      static_cast<std::uint64_t>(doc.at("options_fingerprint").as_int());
  report.ligands_screened =
      static_cast<std::uint64_t>(doc.at("ligands_screened").as_int());
  report.stage1_survivors =
      static_cast<std::uint64_t>(doc.at("stage1_survivors").as_int());
  report.top_k = static_cast<int>(doc.at("top_k").as_int());
  for (const Json& h : doc.at("hits").as_array()) {
    report.hits.push_back(hit_from_json(h));
  }
  return report;
}

void save_screen_checkpoint(const std::string& path,
                            const std::vector<Stage1Result>& results,
                            std::uint64_t chunks_done, std::uint64_t chunk_size,
                            std::uint64_t fingerprint,
                            const std::string& receptor_tag) {
  Json doc = record_header(checkpoint_header(fingerprint));
  doc.set("receptor", receptor_tag);
  doc.set("chunk_size", static_cast<std::int64_t>(chunk_size));
  doc.set("chunks_done", static_cast<std::int64_t>(chunks_done));
  Json stage1 = Json::array();
  for (const Stage1Result& r : results) stage1.push_back(stage1_json(r));
  doc.set("stage1", std::move(stage1));
  write_file_atomic(path, doc.dump(2) + "\n");
}

bool load_screen_checkpoint(const std::string& path, std::uint64_t fingerprint,
                            const std::string& receptor_tag,
                            std::uint64_t chunk_size,
                            std::vector<Stage1Result>* results,
                            std::uint64_t* chunks_done) {
  QDB_REQUIRE(results != nullptr && chunks_done != nullptr, "null output");
  const std::optional<Json> record = read_record(path, checkpoint_header(fingerprint));
  if (!record) return false;
  const Json& doc = *record;
  if (doc.at("receptor").as_string() != receptor_tag) {
    throw IoError("screen checkpoint '" + path + "' belongs to receptor '" +
                  doc.at("receptor").as_string() + "', not '" + receptor_tag + "'");
  }
  if (static_cast<std::uint64_t>(doc.at("chunk_size").as_int()) != chunk_size) {
    throw IoError("screen checkpoint '" + path + "': chunk size mismatch");
  }
  results->clear();
  for (const Json& r : doc.at("stage1").as_array()) {
    results->push_back(stage1_from_json(r));
  }
  *chunks_done = static_cast<std::uint64_t>(doc.at("chunks_done").as_int());
  return true;
}

}  // namespace qdb::screen
