"""Event rows as the EventColumns that every event-log function takes.

Tests write small logs as lists of Event rows, each checked as it is built;
as_columns() appends them as one chunk through EventColumnAppender.extend,
the step the readers append with.
"""

from sendwhen.pipeline import EventColumnAppender


def as_columns(events):
    """The EventColumns of Event rows, in their order."""
    features = {}  # name -> (rows, values), names in order of first appearance
    for i, e in enumerate(events):
        for name, value in e.features.items():
            rows, values = features.setdefault(name, ([], []))
            rows.append(i)
            values.append(value)
    appender = EventColumnAppender()
    appender.extend([e.user_id for e in events], [e.ts_hours for e in events],
                    [e.kind for e in events], [e.badge_count for e in events], features)
    return appender.build()
