#include "src/analysis/report.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "src/util/json.h"

namespace specbench {

namespace {

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void AppendFindingJson(std::string& out, const Finding& f, const char* verdict) {
  Appendf(out, "{\"kind\":\"%s\",\"index\":%d,\"vaddr\":\"0x%" PRIx64
               "\",\"aux_index\":%d,\"branch_index\":%d,\"detail\":\"%s\"",
          FindingKindName(f.kind), f.index, f.vaddr, f.aux_index, f.branch_index,
          JsonEscape(f.detail).c_str());
  if (verdict != nullptr) {
    Appendf(out, ",\"verdict\":\"%s\"", verdict);
  }
  out += "}";
}

}  // namespace

std::string RenderCorpusText(const CorpusReport& report) {
  std::string out;
  Appendf(out, "=== analyze: %s ===\n", report.cpu_name.c_str());
  int tp = 0, fp = 0, fn = 0;
  for (const CorpusReportEntry& e : report.entries) {
    Appendf(out, "%-20s %-52s leak=%-3s findings=%zu\n", e.name.c_str(),
            e.description.c_str(), e.xval.leak_observed ? "yes" : "no",
            e.analysis.findings.size());
    for (const ValidatedFinding& vf : e.xval.findings) {
      const Finding& f = vf.finding;
      Appendf(out, "    %-26s @%-3d %s  [%s]\n", FindingKindName(f.kind), f.index,
              f.detail.c_str(), VerdictName(vf.verdict));
    }
    if (e.xval.validated_rewrite) {
      Appendf(out, "    targeted rewrite: leak %s\n",
              e.xval.leak_after_targeted ? "STILL PRESENT" : "eliminated");
    }
    tp += e.xval.true_positives;
    fp += e.xval.false_positives;
    fn += e.xval.false_negatives;
  }
  Appendf(out, "cross-validation: %d true positive(s), %d false positive(s), "
               "%d false negative(s)\n",
          tp, fp, fn);
  return out;
}

std::string RenderCorpusJson(const CorpusReport& report) {
  std::string out;
  Appendf(out, "{\"cpu\":\"%s\",\"entries\":[", JsonEscape(report.cpu_name).c_str());
  bool first_entry = true;
  for (const CorpusReportEntry& e : report.entries) {
    if (!first_entry) {
      out += ",";
    }
    first_entry = false;
    Appendf(out, "{\"name\":\"%s\",\"description\":\"%s\",\"leak_observed\":%s,"
                 "\"true_positives\":%d,\"false_positives\":%d,"
                 "\"false_negatives\":%d,",
            JsonEscape(e.name).c_str(), JsonEscape(e.description).c_str(),
            e.xval.leak_observed ? "true" : "false", e.xval.true_positives,
            e.xval.false_positives, e.xval.false_negatives);
    if (e.xval.validated_rewrite) {
      Appendf(out, "\"leak_after_targeted\":%s,",
              e.xval.leak_after_targeted ? "true" : "false");
    }
    out += "\"findings\":[";
    bool first_finding = true;
    for (const ValidatedFinding& vf : e.xval.findings) {
      if (!first_finding) {
        out += ",";
      }
      first_finding = false;
      AppendFindingJson(out, vf.finding, VerdictName(vf.verdict));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string RenderCorpusJsonMulti(const std::vector<CorpusReport>& reports) {
  std::string out = "[";
  bool first = true;
  for (const CorpusReport& r : reports) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += RenderCorpusJson(r);
  }
  out += "]\n";
  return out;
}

std::string RenderHardenText(const std::vector<HardenReport>& reports) {
  std::string out;
  for (const HardenReport& r : reports) {
    Appendf(out, "=== harden: %s / %s ===\n", r.cpu_name.c_str(), r.pass_name.c_str());
    Appendf(out, "%s\n", r.pass_summary.c_str());
    for (const HardenEntry& e : r.entries) {
      Appendf(out, "%-20s sites=%-3d added=%-3d findings %d -> %d  fixpoint=%s",
              e.program.c_str(), e.sites, e.instructions_added, e.findings_before,
              e.findings_after, e.fixpoint ? "ok" : "FAIL");
      if (e.equivalence_checked) {
        Appendf(out, "  equivalence=%s", e.equivalent ? "ok" : "FAIL");
      }
      if (!e.note.empty()) {
        Appendf(out, "  (%s)", e.note.c_str());
      }
      out += "\n";
    }
  }
  return out;
}

std::string RenderHardenJson(const std::vector<HardenReport>& reports) {
  std::string out = "[";
  bool first_report = true;
  for (const HardenReport& r : reports) {
    if (!first_report) {
      out += ",";
    }
    first_report = false;
    Appendf(out, "{\"cpu\":\"%s\",\"pass\":\"%s\",\"summary\":\"%s\",\"programs\":[",
            JsonEscape(r.cpu_name).c_str(), JsonEscape(r.pass_name).c_str(),
            JsonEscape(r.pass_summary).c_str());
    bool first_entry = true;
    for (const HardenEntry& e : r.entries) {
      if (!first_entry) {
        out += ",";
      }
      first_entry = false;
      Appendf(out, "{\"program\":\"%s\",\"sites\":%d,\"instructions_added\":%d,"
                   "\"findings_before\":%d,\"findings_after\":%d,\"fixpoint\":%s",
              JsonEscape(e.program).c_str(), e.sites, e.instructions_added,
              e.findings_before, e.findings_after, e.fixpoint ? "true" : "false");
      if (e.equivalence_checked) {
        Appendf(out, ",\"equivalent\":%s", e.equivalent ? "true" : "false");
      }
      if (!e.note.empty()) {
        Appendf(out, ",\"note\":\"%s\"", JsonEscape(e.note).c_str());
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]\n";
  return out;
}

bool HardenReportsOk(const std::vector<HardenReport>& reports) {
  for (const HardenReport& r : reports) {
    for (const HardenEntry& e : r.entries) {
      if (!e.fixpoint || (e.equivalence_checked && !e.equivalent)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace specbench
