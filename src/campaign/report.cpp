#include "campaign/report.hpp"

#include <map>

#include "obs/json.hpp"

namespace ssq::campaign {

namespace {

/// Shard k's journal with every foreign unit dropped: shards partition the
/// unit space, so a record for a unit outside [shard_begin(k), shard_end(k))
/// was never run by shard k. Its records count as corrupt.
ShardState load_shard(const std::string& dir, const Manifest& m,
                      std::uint64_t k) {
  ShardState s = load_checkpoint(ckpt_path(dir, k));
  const std::uint64_t b = m.shard_begin(k);
  const std::uint64_t e = m.shard_end(k);
  std::erase_if(s.units, [&](const auto& entry) {
    const auto& [j, unit] = entry;
    if (j >= b && j < e) return false;
    s.corrupt_records += unit.attempts + (unit.done ? 1 : 0);
    return true;
  });
  return s;
}

}  // namespace

Report merge_checkpoints(const std::string& dir, const Manifest& m) {
  // Collect the first done-record per unit across shards. Each shard
  // contributes only its own units, so cross-shard duplicates cannot
  // happen; within a shard load_checkpoint already keeps the first record.
  // Iterating the map gives canonical global-index order regardless of which shard finished when —
  // this, not accumulation-time order, is what makes the report bytes
  // independent of the execution schedule.
  std::map<std::uint64_t, Record> done;
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    const ShardState s = load_shard(dir, m, k);
    for (const auto& [j, unit] : s.units) {
      if (unit.done.has_value()) done.emplace(j, *unit.done);
    }
  }

  Report r;
  r.total = m.total_units();
  r.grid.resize(m.grid.size());
  for (std::size_t g = 0; g < m.grid.size(); ++g) {
    r.grid[g].label = m.grid[g].label;
  }
  for (const auto& [j, rec] : done) {
    Report::GridTotals& gt = r.grid[m.grid_of(j)];
    ++r.completed;
    switch (rec.verdict) {
      case Verdict::Ok:
        ++r.ok;
        ++gt.ok;
        break;
      case Verdict::Fail:
        ++r.failed;
        ++gt.failed;
        break;
      case Verdict::Quarantined:
        ++r.quarantined;
        ++gt.quarantined;
        break;
    }
    r.grants += rec.grants;
    r.delivered += rec.delivered;
    r.windows += rec.windows;
    r.violations_gb += rec.violations_gb;
    r.violations_gl += rec.violations_gl;
    r.violations_be += rec.violations_be;
    if (rec.faulted) ++r.faulted;
    gt.grants += rec.grants;
    gt.delivered += rec.delivered;
    if (rec.verdict != Verdict::Ok) {
      Report::Incident inc;
      inc.index = j;
      inc.scenario = m.scenario_of(j);
      inc.grid_label = m.grid[m.grid_of(j)].label;
      inc.kind = rec.kind;
      inc.cycle = rec.fail_cycle;
      (rec.verdict == Verdict::Fail ? r.failures : r.quarantines)
          .push_back(std::move(inc));
    }
  }
  r.skipped = r.total - r.completed;
  // Per-grid skipped: units of that grid point without a done record.
  for (std::size_t g = 0; g < m.grid.size(); ++g) {
    r.grid[g].skipped =
        m.scenarios - (r.grid[g].ok + r.grid[g].failed + r.grid[g].quarantined);
  }
  return r;
}

namespace {

void render_incidents(std::string& out, const char* key,
                      const std::vector<Report::Incident>& list) {
  out += std::string(",\"") + key + "\":[";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i) out += ',';
    const Report::Incident& inc = list[i];
    out += "{\"index\":" + std::to_string(inc.index) +
           ",\"grid\":" + obs::json_quote(inc.grid_label) +
           ",\"scenario\":" + std::to_string(inc.scenario) +
           ",\"kind\":" + obs::json_quote(inc.kind) +
           ",\"cycle\":" + std::to_string(inc.cycle) + "}";
  }
  out += "]";
}

}  // namespace

std::string render_report(const Report& r, const Manifest& m) {
  std::string out = "{\"schema\":\"ssq.campaign.v1\"";
  out += ",\"manifest\":{\"base_seed\":" + std::to_string(m.base_seed) +
         ",\"scenarios\":" + std::to_string(m.scenarios) +
         ",\"shards\":" + std::to_string(m.shards) + ",\"grid\":[";
  for (std::size_t g = 0; g < m.grid.size(); ++g) {
    if (g) out += ',';
    out += obs::json_quote(m.grid[g].label);
  }
  out += "]}";
  out += ",\"work\":{\"total\":" + std::to_string(r.total) +
         ",\"completed\":" + std::to_string(r.completed) +
         ",\"ok\":" + std::to_string(r.ok) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"quarantined\":" + std::to_string(r.quarantined) +
         ",\"skipped\":" + std::to_string(r.skipped) + "}";
  out += ",\"totals\":{\"grants\":" + std::to_string(r.grants) +
         ",\"delivered\":" + std::to_string(r.delivered) +
         ",\"windows\":" + std::to_string(r.windows) +
         ",\"violations\":{\"gb\":" + std::to_string(r.violations_gb) +
         ",\"gl\":" + std::to_string(r.violations_gl) +
         ",\"be\":" + std::to_string(r.violations_be) +
         "},\"faulted\":" + std::to_string(r.faulted) + "}";
  out += ",\"grid_totals\":[";
  for (std::size_t g = 0; g < r.grid.size(); ++g) {
    if (g) out += ',';
    const Report::GridTotals& gt = r.grid[g];
    out += "{\"grid\":" + obs::json_quote(gt.label) +
           ",\"ok\":" + std::to_string(gt.ok) +
           ",\"failed\":" + std::to_string(gt.failed) +
           ",\"quarantined\":" + std::to_string(gt.quarantined) +
           ",\"skipped\":" + std::to_string(gt.skipped) +
           ",\"grants\":" + std::to_string(gt.grants) +
           ",\"delivered\":" + std::to_string(gt.delivered) + "}";
  }
  out += "]";
  render_incidents(out, "failed", r.failures);
  render_incidents(out, "quarantined", r.quarantines);
  out += std::string(",\"resumable\":") + (r.complete() ? "false" : "true");
  out += "}\n";
  return out;
}

std::string render_execution(const ExecutionStats& e, const Report& r) {
  std::string out = "{\"schema\":\"ssq.campaign.exec.v1\"";
  out += ",\"retried\":" + std::to_string(e.retried);
  out += ",\"worker_restarts\":" + std::to_string(e.worker_restarts);
  out += ",\"watchdog_kills\":" + std::to_string(e.watchdog_kills);
  out += ",\"corrupt_records_discarded\":" + std::to_string(e.corrupt_records);
  out += ",\"workers\":" + std::to_string(e.workers);
  out += ",\"elapsed_s\":" + obs::json_number(e.elapsed_s);
  out += std::string(",\"interrupted\":") + (e.interrupted ? "true" : "false");
  out += std::string(",\"gave_up\":") + (e.gave_up ? "true" : "false");
  out += std::string(",\"resumable\":") + (r.complete() ? "false" : "true");
  out += ",\"completed\":" + std::to_string(r.completed);
  out += ",\"skipped\":" + std::to_string(r.skipped);
  out += "}\n";
  return out;
}

void fold_journal_history(const std::string& dir, const Manifest& m,
                          ExecutionStats& e) {
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    const ShardState s = load_shard(dir, m, k);
    e.corrupt_records += s.corrupt_records;
    for (const auto& [j, unit] : s.units) {
      (void)j;
      if (unit.attempts > 1) e.retried += unit.attempts - 1;
    }
  }
}

}  // namespace ssq::campaign
