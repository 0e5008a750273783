"""Quaternion attitude estimation toolkit.

Library layout:

- attiq.quat       quaternion / DCM algebra
- attiq.sim        truth trajectories and IMU measurement synthesis
- attiq.dataset    CSV + JSON dataset persistence
- attiq.plant      linearized error-state plant construction
- attiq.sdp        dense block-diagonal semidefinite solver (solver stack)
- attiq.synthesis  H2 gain synthesis (LMI route + Riccati oracle) and gain
                   files; its solves load the solver stack (sdp, scipy) on
                   first use
- attiq.filters    gain-scheduled H2 filter, MEKF baseline, runner
- attiq.report     benchmark reports and tables
- attiq.verify     end-to-end acceptance checks
- attiq.cli        command line entry point
"""

__version__ = "0.1.0"
