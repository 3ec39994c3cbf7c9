#include "src/workloads/pmake.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/filesystem.h"

namespace workloads {
namespace {

constexpr hive::VirtAddr kTextVa = 0x10000000;
constexpr hive::VirtAddr kPrivateVa = 0x20000000;
constexpr hive::VirtAddr kAnonVa = 0x30000000;
constexpr hive::VirtAddr kScratchVa = 0x38000000;

}  // namespace

PmakeWorkload::PmakeWorkload(hive::HiveSystem* system, const PmakeParams& params)
    : system_(system), params_(params) {}

std::string PmakeWorkload::SourcePath(int job) const {
  return "/src/" + std::to_string(params_.name_seed) + "/file" + std::to_string(job) + ".c";
}

std::string PmakeWorkload::OutputPath(int job) const {
  return "/tmp/" + std::to_string(params_.name_seed) + "/file" + std::to_string(job) + ".o";
}

void PmakeWorkload::Setup() {
  hive::Cell& server = system_->cell(params_.file_server);
  hive::Ctx ctx = server.MakeCtx();
  const uint64_t page_size = system_->machine().mem().page_size();

  auto create_and_warm = [&](const std::string& path, uint64_t seed, uint64_t size) {
    auto id = server.fs().Create(ctx, path, PatternData(seed, size));
    CHECK(id.ok()) << "pmake setup: create " << path << " failed";
    // Warm the file server's cache (the paper warms caches before measuring).
    const uint64_t pages = (size + page_size - 1) / page_size;
    for (uint64_t p = 0; p < pages; ++p) {
      auto got = server.fs().GetPageLocal(ctx, id->vnode, p, /*want_write=*/false);
      CHECK(got.ok());
      (*got)->refcount--;
    }
  };

  create_and_warm("/bin/" + std::to_string(params_.name_seed) + "/cc",
                  params_.name_seed * 7, params_.shared_text_pages * page_size);
  for (int job = 0; job < params_.jobs; ++job) {
    create_and_warm(SourcePath(job), params_.name_seed * 1000 + static_cast<uint64_t>(job),
                    params_.source_bytes);
    create_and_warm("/hdr/" + std::to_string(params_.name_seed) + "/work" +
                        std::to_string(job) + ".dat",
                    params_.name_seed * 3000 + static_cast<uint64_t>(job),
                    params_.private_file_pages * page_size);
    // Empty output files in /tmp, homed on the file server.
    auto id = server.fs().Create(ctx, OutputPath(job), {});
    CHECK(id.ok());
    // Write-mapped scratch file in /tmp (compiler temp data).
    if (params_.scratch_pages > 0) {
      auto scratch = server.fs().Create(
          ctx, "/tmp/" + std::to_string(params_.name_seed) + "/scratch" +
                   std::to_string(job),
          PatternData(1, params_.scratch_pages * page_size));
      CHECK(scratch.ok());
    }
  }
}

std::unique_ptr<hive::Behavior> PmakeWorkload::MakeJob(int job, hive::CellId cell) {
  (void)cell;
  auto behavior = std::make_unique<ScriptedBehavior>("pmake-job-" + std::to_string(job));
  const uint64_t page_size = system_->machine().mem().page_size();
  const std::string prefix = std::to_string(params_.name_seed);

  auto src_fd = std::make_shared<int>(-1);
  auto cc_fd = std::make_shared<int>(-1);
  auto work_fd = std::make_shared<int>(-1);
  auto out_fd = std::make_shared<int>(-1);

  // Header lookups and stats against the file server.
  behavior->Add(OpMetadataOps(params_.metadata_ops, params_.file_server));

  // Read the source.
  behavior->Add(OpOpen(SourcePath(job), src_fd));
  behavior->Add(OpRead(src_fd, 0, params_.source_bytes,
                       params_.name_seed * 1000 + static_cast<uint64_t>(job)));
  behavior->Add(OpClose(src_fd));

  // Map and fault the shared compiler text.
  behavior->Add(OpOpen("/bin/" + prefix + "/cc", cc_fd));
  behavior->Add(OpMapFile(cc_fd, kTextVa, params_.shared_text_pages * page_size,
                          /*writable=*/false));
  behavior->Add(OpFaultRange(kTextVa, params_.shared_text_pages, /*write=*/false));

  // Map and fault the job's private data file.
  behavior->Add(OpOpen("/hdr/" + prefix + "/work" + std::to_string(job) + ".dat", work_fd));
  behavior->Add(OpMapFile(work_fd, kPrivateVa, params_.private_file_pages * page_size,
                          /*writable=*/false));
  behavior->Add(OpFaultRange(kPrivateVa, params_.private_file_pages, /*write=*/false));

  // Private anonymous working set.
  behavior->Add(OpMapAnon(kAnonVa, params_.anon_pages * page_size, /*writable=*/true));
  behavior->Add(OpFaultRange(kAnonVa, params_.anon_pages, /*write=*/true));

  // Write-mapped scratch file on the /tmp server: the only write-shared
  // firewall grants pmake produces (section 4.2: ~15 pages per sample).
  auto scratch_fd = std::make_shared<int>(-1);
  if (params_.scratch_pages > 0) {
    behavior->Add(OpOpen("/tmp/" + prefix + "/scratch" + std::to_string(job), scratch_fd));
    behavior->Add(OpMapFile(scratch_fd, kScratchVa, params_.scratch_pages * page_size,
                            /*writable=*/true));
    behavior->Add(OpFaultRange(kScratchVa, params_.scratch_pages, /*write=*/true));
    // Store traffic to the write-shared scratch pages: the remote write
    // misses whose latency the firewall check raises (section 4.2).
    behavior->Add(OpTouchMapped(kScratchVa, params_.scratch_pages, /*write=*/true,
                                /*misses_per_page=*/16));
  }

  // Compile.
  behavior->Add(OpCompute(params_.compute_per_job));

  // Write the object file to /tmp.
  behavior->Add(OpOpen(OutputPath(job), out_fd));
  behavior->Add(OpWrite(out_fd, 0, params_.output_bytes,
                        params_.name_seed * 2000 + static_cast<uint64_t>(job)));
  behavior->Add(OpClose(out_fd));
  behavior->Add(OpClose(cc_fd));
  behavior->Add(OpClose(work_fd));
  if (params_.scratch_pages > 0) {
    behavior->Add(OpClose(scratch_fd));
  }
  return behavior;
}

std::vector<hive::ProcId> PmakeWorkload::Start() {
  const std::vector<hive::CellId> live = system_->LiveCells();
  CHECK(!live.empty());
  hive::Cell& server = system_->cell(live.front());
  hive::Ctx ctx = server.MakeCtx();
  for (int job = 0; job < params_.jobs; ++job) {
    const hive::CellId cell = live[static_cast<size_t>(job) % live.size()];
    auto pid = system_->Fork(ctx, cell, MakeJob(job, cell));
    CHECK(pid.ok());
    pids_.push_back(*pid);
    job_cells_.push_back(cell);
  }
  return pids_;
}

int PmakeWorkload::CompletedJobs() const {
  int completed = 0;
  for (size_t i = 0; i < pids_.size(); ++i) {
    const hive::CellId cell_id = system_->FindProcessCell(pids_[i]);
    if (cell_id == hive::kInvalidCell || !system_->cell(cell_id).alive()) {
      continue;
    }
    hive::Process* proc = system_->cell(cell_id).sched().FindProcess(pids_[i]);
    if (proc != nullptr && proc->state() == hive::ProcState::kExited) {
      ++completed;
    }
  }
  return completed;
}

int PmakeWorkload::ValidateOutputs() {
  if (!system_->cell(params_.file_server).alive()) {
    return -1;  // Output files unavailable; nothing to validate.
  }
  hive::Cell& server = system_->cell(params_.file_server);
  int corrupt = 0;
  for (int job = 0; job < params_.jobs; ++job) {
    // Only validate outputs of jobs that claim success.
    const hive::CellId cell_id = system_->FindProcessCell(pids_[static_cast<size_t>(job)]);
    if (cell_id == hive::kInvalidCell || !system_->cell(cell_id).alive()) {
      continue;
    }
    hive::Process* proc =
        system_->cell(cell_id).sched().FindProcess(pids_[static_cast<size_t>(job)]);
    if (proc == nullptr || proc->state() != hive::ProcState::kExited) {
      continue;
    }
    auto file_id = system_->LookupPath(OutputPath(job));
    if (!file_id.ok()) {
      ++corrupt;
      continue;
    }
    const hive::Vnode* vnode = server.fs().FindVnode(file_id->vnode);
    if (vnode == nullptr || vnode->disk_image.size() < params_.output_bytes) {
      ++corrupt;
      continue;
    }
    const uint64_t seed = params_.name_seed * 2000 + static_cast<uint64_t>(job);
    const std::vector<uint8_t> expected = PatternData(seed, params_.output_bytes);
    if (!std::equal(expected.begin(), expected.end(), vnode->disk_image.begin())) {
      ++corrupt;
    }
  }
  return corrupt;
}

}  // namespace workloads
