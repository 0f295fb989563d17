"""roundsched: co-scheduling of tasks, messages and communication rounds
for low-power wireless control networks, plus a runtime protocol simulator.

The package splits into:

- model: the system description (tasks, messages, applications, modes)
- stepfuncs: counting step functions linking schedules to round service
- timing: radio timing and energy model of flooding rounds
- ilp: integer-program formulation of the co-scheduling problem
- solver: exact solution of such programs with the HiGHS MILP engine
- synthesis: the outer loop searching for the minimal round count
- checker: independent schedule verification
- sim: beacon-driven runtime simulation with loss and mode changes
- specio/cli: file formats and the command-line front end
"""

__version__ = "0.1.0"
