#include "campaign/report.hpp"

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

Report::Report(const Manifest& m)
    : total(m.total_units()), skipped(m.total_units()) {
  grid.resize(m.grid.size());
  for (std::size_t g = 0; g < m.grid.size(); ++g) {
    grid[g].label = m.grid[g].label;
    grid[g].skipped = m.scenarios;
  }
}

void Report::add(const Manifest& m, const Record& rec) {
  GridTotals& gt = grid[m.grid_of(rec.j)];
  ++completed;
  --skipped;
  --gt.skipped;
  switch (rec.verdict) {
    case Verdict::Ok:
      ++ok;
      ++gt.ok;
      break;
    case Verdict::Fail:
      ++failed;
      ++gt.failed;
      break;
    case Verdict::Quarantined:
      ++quarantined;
      ++gt.quarantined;
      break;
  }
  grants += rec.grants;
  delivered += rec.delivered;
  windows += rec.windows;
  violations_gb += rec.violations_gb;
  violations_gl += rec.violations_gl;
  violations_be += rec.violations_be;
  if (rec.faulted) ++faulted;
  gt.grants += rec.grants;
  gt.delivered += rec.delivered;
  if (rec.verdict != Verdict::Ok) {
    (rec.verdict == Verdict::Fail ? failures : quarantines)
        .push_back(Incident{rec.j, m.scenario_of(rec.j), gt.label, rec.kind,
                            rec.fail_cycle});
  }
}

Report merge_checkpoints(const std::string& dir, const Manifest& m) {
  // Shards cover ascending contiguous ranges and each shard's units are
  // keyed by index, so this visits every done unit in global index order,
  // whichever shard finished when: the report bytes do not depend on the
  // execution schedule. Each shard contributes only its own units, and
  // within a shard load_checkpoint keeps the first done record.
  Report r(m);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    for (const auto& [j, unit] : load_shard(dir, m, k).units) {
      if (unit.done.has_value()) r.add(m, *unit.done);
    }
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
