"""The Alto file system (section 3): pages, files, directories, hints,
the scavenger, and the compacting scavenger."""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "allocator": ("PageAllocator",),
    "check": ("Change", "RecoveryReport", "SweepResult", "canonical_build",
              "canonical_workload", "check_recovery", "crash_point_sweep",
              "prefix_consistent", "snapshot_files"),
    "compactor": ("CompactionReport", "Compactor", "compact"),
    "descriptor": ("BOOT_PAGE_ADDRESS", "DESCRIPTOR_LEADER_ADDRESS",
                   "DESCRIPTOR_NAME", "DiskDescriptor"),
    "directory": ("DirEntry", "Directory"),
    "file": ("AltoFile", "FULL_PAGE"),
    "fsck": ("CheckReport", "Issue", "PackIndex", "check_image"),
    "filesystem": ("FileSystem", "ROOT_DIRECTORY_NAME", "SERIAL_LEASE"),
    "hints": ("ConsecutiveReader", "HintLadder", "KthPageHints", "RUNGS"),
    "journal": ("JournaledDirectory", "JournalRecord", "recover_directory"),
    "volumes": ("DrivePair", "copy_all_files", "copy_file", "duplicate_pack"),
    "leader": ("LeaderPage", "MAX_NAME_LENGTH"),
    "names": ("FIRST_VERSION", "FileId", "FullName", "MAX_PAGE_NUMBER",
              "make_serial", "page_number_from_label"),
    "online": ("MaintenanceInvariantError", "MaintenanceReport",
               "ONLINE_TOLERATED_ISSUES", "OnlineMaintenance"),
    "page": ("PageContents", "PageIO"),
    "scavenger": ("ScavengeReport", "Scavenger", "SweptPage", "scavenge"),
})
