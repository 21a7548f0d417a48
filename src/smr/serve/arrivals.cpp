#include "smr/serve/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "smr/common/error.hpp"
#include "smr/common/rng.hpp"

namespace smr::serve {

void TenantConfig::validate() const {
  SMR_CHECK_MSG(!name.empty(), "tenant with empty name");
  SMR_CHECK_MSG(jobs_per_hour > 0.0,
                "tenant '" << name << "': jobs_per_hour must be > 0");
  shape.validate();
}

ArrivalTrace generate_arrivals(const std::vector<TenantConfig>& tenants,
                               SimTime horizon, std::uint64_t seed) {
  SMR_CHECK(horizon > 0.0);
  SMR_CHECK_MSG(!tenants.empty(), "no tenants configured");

  ArrivalTrace trace;
  trace.tenants.reserve(tenants.size());

  // Per-tenant substream seeds come from one SplitMix64 walk over the
  // master seed: tenant i's seed is the i-th output, a function of (seed,
  // i) only, so later tenants never perturb earlier streams.
  SplitMix64 seeder(seed);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantConfig& tenant = tenants[i];
    tenant.validate();
    trace.tenants.push_back(tenant.name);

    Rng rng(seeder.next());
    const double mean_gap = 3600.0 / tenant.jobs_per_hour;
    SimTime clock = 0.0;
    for (;;) {
      clock += -mean_gap * std::log1p(-rng.uniform());
      if (clock >= horizon) break;
      Arrival arrival;
      arrival.tenant = static_cast<int>(i);
      arrival.job.spec = workload::draw_synthetic_job(tenant.shape, rng);
      arrival.job.submit_at = clock;
      trace.arrivals.push_back(std::move(arrival));
    }
  }

  std::stable_sort(trace.arrivals.begin(), trace.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.job.submit_at != b.job.submit_at) {
                       return a.job.submit_at < b.job.submit_at;
                     }
                     return a.tenant < b.tenant;
                   });
  return trace;
}

namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) fields.push_back(trim(field));
  return fields;
}

double parse_number(const std::string& text, int line_number, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  SMR_CHECK_MSG(end != nullptr && *end == '\0' && !text.empty(),
                "arrivals csv line " << line_number << ": bad " << what << " '"
                                     << text << "'");
  SMR_CHECK_MSG(std::isfinite(value), "arrivals csv line " << line_number << ": " << what
                                                  << " must be finite, got '" << text << "'");
  return value;
}

}  // namespace

ArrivalTrace parse_arrivals_csv(std::istream& in) {
  ArrivalTrace trace;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto fields = split_csv(trimmed);
    if (line_number == 1 && !fields.empty() && fields[0] == "tenant") {
      continue;  // header row
    }
    SMR_CHECK_MSG(fields.size() == 4 || fields.size() == 6,
                  "arrivals csv line " << line_number
                                       << ": expected 4 or 6 fields, got "
                                       << fields.size());

    Arrival arrival;
    const std::string& tenant_name = fields[0];
    SMR_CHECK_MSG(!tenant_name.empty(),
                  "arrivals csv line " << line_number << ": empty tenant");
    const auto found = std::find(trace.tenants.begin(), trace.tenants.end(),
                                 tenant_name);
    if (found == trace.tenants.end()) {
      arrival.tenant = static_cast<int>(trace.tenants.size());
      trace.tenants.push_back(tenant_name);
    } else {
      arrival.tenant = static_cast<int>(found - trace.tenants.begin());
    }

    const auto bench = workload::puma_from_name(fields[1]);
    SMR_CHECK_MSG(bench.has_value(),
                  "arrivals csv line " << line_number << ": unknown benchmark '"
                                       << fields[1] << "'");
    const double input_gib = parse_number(fields[2], line_number, "input_gib");
    SMR_CHECK_MSG(input_gib > 0.0,
                  "arrivals csv line " << line_number << ": input_gib must be > 0");
    SMR_CHECK_MSG(input_gib <= mapreduce::kMaxInputGib,
                  "arrivals csv line " << line_number << ": input_gib " << input_gib
                                   << " exceeds " << mapreduce::kMaxInputGib << " ("
                                   << mapreduce::kMaxTasks << " map tasks)");
    arrival.job.spec = workload::make_puma_job(
        *bench, static_cast<Bytes>(input_gib * static_cast<double>(kGiB)));
    arrival.job.submit_at = parse_number(fields[3], line_number, "arrive_at");
    SMR_CHECK_MSG(arrival.job.submit_at >= 0.0,
                  "arrivals csv line " << line_number << ": arrive_at must be >= 0");

    if (fields.size() == 6) {
      arrival.job.spec.slo_class = fields[4];
      if (!fields[5].empty() && fields[5] != "inf") {
        const double deadline = parse_number(fields[5], line_number, "deadline_s");
        SMR_CHECK_MSG(deadline >= 0.0,
                      "arrivals csv line " << line_number
                                           << ": deadline_s must be >= 0");
        arrival.job.spec.relative_deadline = deadline;
      }
    }
    trace.arrivals.push_back(std::move(arrival));
  }

  std::stable_sort(trace.arrivals.begin(), trace.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.job.submit_at != b.job.submit_at) {
                       return a.job.submit_at < b.job.submit_at;
                     }
                     return a.tenant < b.tenant;
                   });
  return trace;
}

ArrivalTrace load_arrivals_csv(const std::string& path) {
  std::ifstream in(path);
  SMR_CHECK_MSG(in.good(), "cannot read arrivals csv '" << path << "'");
  return parse_arrivals_csv(in);
}

void write_arrivals_csv(const ArrivalTrace& trace, std::ostream& out) {
  out << "tenant,benchmark,input_gib,arrive_at,slo_class,deadline_s\n";
  for (const auto& arrival : trace.arrivals) {
    out << trace.tenants[static_cast<std::size_t>(arrival.tenant)] << ','
        << arrival.job.spec.name << ',' << to_gib(arrival.job.spec.input_size)
        << ',' << arrival.job.submit_at << ',' << arrival.job.spec.slo_class
        << ',';
    if (arrival.job.spec.relative_deadline == kTimeNever) {
      out << "inf";
    } else {
      out << arrival.job.spec.relative_deadline;
    }
    out << '\n';
  }
}

}  // namespace smr::serve
