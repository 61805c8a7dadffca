// Execute-in-place on an OmniBook-class machine: install a few bundled
// applications into flash and launch them, comparing XIP against the
// conventional copy-into-DRAM load (paper Section 3.2).
//
//   $ ./examples/xip_launcher

#include <iostream>
#include <vector>

#include "src/core/machine.h"
#include "src/support/table.h"
#include "src/vm/loader.h"

int main() {
  using namespace ssmc;

  MobileComputer machine(OmniBookConfig());
  (void)machine.fs().Mkdir("/rom");

  struct App {
    const char* name;
    uint64_t text_kib;
    uint64_t data_kib;
  };
  const App apps[] = {
      {"word", 384, 64},
      {"sheet", 256, 96},
      {"organizer", 128, 32},
  };

  // Install the bundled software (as shipped on the flash card).
  for (const App& app : apps) {
    Program program;
    program.path = std::string("/rom/") + app.name;
    program.text_bytes = app.text_kib * kKiB;
    program.data_bytes = app.data_kib * kKiB;
    if (Status s = InstallProgram(machine.fs(), program); !s.ok()) {
      std::cerr << "install failed: " << s.ToString() << "\n";
      return 1;
    }
  }
  machine.Idle(5 * kMinute);  // Background installation writes drain.

  std::cout << "Installed " << std::size(apps)
            << " applications into flash; free DRAM pages: "
            << machine.storage().free_pages(PageTier::kDram) << "\n\n";

  ProgramLoader loader;
  Table table({"app", "strategy", "launch", "code DRAM", "first run"});
  for (const App& app : apps) {
    Program program;
    program.path = std::string("/rom/") + app.name;
    program.text_bytes = app.text_kib * kKiB;
    program.data_bytes = app.data_kib * kKiB;
    for (const LaunchStrategy strategy :
         {LaunchStrategy::kExecuteInPlace, LaunchStrategy::kCopyFromFlash}) {
      AddressSpace& space = machine.CreateAddressSpace();
      Result<LaunchResult> launch =
          loader.Launch(space, machine.fs(), program, strategy);
      if (!launch.ok()) {
        std::cerr << "launch failed: " << launch.status().ToString() << "\n";
        return 1;
      }
      Result<Duration> run = loader.Execute(space, launch.value(), 1);
      table.AddRow();
      table.AddCell(app.name);
      table.AddCell(std::string(LaunchStrategyName(strategy)));
      table.AddCell(FormatDuration(launch.value().launch_latency));
      table.AddCell(FormatSize(launch.value().dram_pages_after_launch * 512));
      table.AddCell(FormatDuration(run.value()));
      // Release the space's DRAM before the next run.
      (void)space.Unmap(launch.value().text_va);
      (void)space.Unmap(launch.value().stack_va);
      if (program.data_bytes > 0) {
        (void)space.Unmap(launch.value().data_va);
      }
    }
  }
  table.Print(std::cout);

  std::cout << "\nXIP launches instantly and leaves DRAM for data — the "
               "OmniBook shipped its bundled\nsoftware exactly this way "
               "(paper Section 3.2, ref [12]).\n";
  return 0;
}
